"""Exact execution of protocol programs.

:func:`kraus_form` is the one execution primitive.  It runs a program
once, in one straight-line pass that covers every classical transcript,
and returns the Kraus operator K_t of each transcript t of the channel
the program implements on its n external wires (d = 2^n): the branch
output for input psi is ``K_t @ psi`` (unnormalized) and its probability
is ``|K_t psi|^2``.  A program built by the builder has at most four
transcripts, so everything downstream is small.  The operators come
factored over a basis of at most two operators on the last wires,

    K_t = sum_b C_tb ⊗ M_b,

and every consumer reads that form:

* :func:`kraus_stack` assembles the dense (T, d, d) stack, for
  :func:`channel_choi`, the amplitudes of ``telegate trace`` and tests;
* :func:`choi_residual` compares the channel with a unitary written over
  a basis of its own, from projections and the Gram matrix of the
  residuals (see :func:`kraus_choi_distance`, its dense form);
* the verifier reads branch evidence and the Choi distance in one
  function (``verifier._evidence``), over one basis it picks per call:
  the form's own {I, V} when the specification is exactly
  controlled(V), V the slot's gate, reading the coefficients' rows,
  their pair products (:func:`column_pairs`, cached by
  :func:`_operands`) and the basis's column Grams that the form
  carries, and otherwise {1}, over which the rows are the dense
  operators themselves.  The form carries V's own matrix object
  (``KrausForm.v``), so a specification that :func:`qsim.controlled`
  built from that gate is recognized by its record, without comparing
  its entries.

The slot.  A program's *slot* is an ``ApplyControlledLocal`` whose targets
are the trailing external wires, in order, and which no other
instruction touches: Bob's controlled-U in every program the builder
makes (Eisert, Jacobs, Papadopoulos & Plenio, PRA 62, 052317).  All else
acts on the other externals and the internal qubits, so by linearity
K_t = X_t ⊗ I + Y_t ⊗ V, with V the slot's gate and X_t, Y_t the
operators the program implements on the other externals (dimension
r = d / 2^k) when the slot is replaced by the projector of its control
on |0> and on |1>.  :func:`_run` computes both in one pass over the r
identity columns that leaves the k target wires out: where the slot
stands, a fresh |0> *basis qubit* is flipped by a CNOT from the slot's
control, so that it records which of I and V acts, and X_t and Y_t are
the program's output at its values 0 and 1 (deferred measurement,
Nielsen & Chuang §4.4).  The basis is then {I, V}, with C_t0 = X_t and
C_t1 = Y_t, and X_t and Y_t depend on neither V nor k.  A program
without a slot runs on every external wire, with the trivial basis {1}
and C_t0 = K_t.

:func:`_run` and :func:`_apply` are the only code that evolves or
measures a state.  Measurement is deferred: a measured qubit stays in
the register as the record of its outcome, a conditional Pauli becomes
a Pauli controlled on that record, and at the end the records index the
transcripts.  The register therefore holds the external wires plus
every qubit the program allocates, and that is what the qubit cap
counts, whether the pass holds a slot's k targets or its one basis
qubit, so that a refusal does not depend on the factoring.

The pass is split in two.  :func:`_layout` works out everything that
depends only on the program's *shape* (:func:`_shape`: its externals,
and each instruction with its gate matrix and label left out): the
slot, the register width, each step's axis permutation, the final axis
order, every transcript and the program's resource census, which every
form carries (:func:`protocol.resource_census` reads only instruction
classes and ``SendBit.to_party``).  :func:`_run` then applies the numbers,
reading each gate matrix from the program by index.  Every program the
builder makes for one k has one shape, so :func:`kraus_form` validates
and lays out a shape once and keeps the layout in a cache of at most
:data:`LAYOUT_CACHE_SIZE` shapes, oldest out first.  An invalid program
never enters it.  The qubit cap is checked on every call, against
:func:`qsim.max_qubits`, which reads ``TELEGATE_MAX_QUBITS`` once per
process (``qsim.max_qubits.cache_clear()`` resets it).

A cache entry also keeps what the last pass run for its shape gave, with
the gate objects that pass read (every gate but the slot's): the
coefficients C_tb, their :func:`_gram`, the (T, B, B) inner products
<C_tb, C_tc>, and, for a slot with one other external wire (r = 2),
what the verifier reads over {I, V} (:func:`_operands`): the rows
z = [P0, P1; X_t, Y_t] and their column pair products.  None of them
depends on V, so a warm call computes only what V changes.  A call
reuses them only when each of its own non-slot gates *is* the object
the entry holds: no matrix is hashed or compared, and the held
reference keeps an object's id from being reused.  The builder shares
its non-slot gates between every program of one k, so a sweep over
gates of one k runs the pass once per shape, and a warm call runs no
pass at all.

Coefficients are kept only when they hold at most
:data:`BLOCK_CACHE_ENTRIES` complex entries (64 KiB), as the
(4, 1, 32, 32) coefficients of a slot-free k = 4 program do, and the
rest is bounded by them: the Gram holds B² entries per transcript
against their B r² (half as many at r = 2, twice as many at r = 1), and
at r = 2 the rows hold 8 entries more than the coefficients and the
pairs twice as many as the rows.  An entry therefore keeps at most
4.5 × 4096 + 24 = 18456 complex entries (288.375 KiB, reached by a slot
with r = 2 and 512 transcripts), and the cache at most
``LAYOUT_CACHE_SIZE`` times that, under 18.1 MiB.  It is the package's
one cache of arrays derived from the coefficients; the verifier keeps
nothing of its own.  Cached arrays are read-only, and so are a form's
coefficients exactly when they are cached ones and its rows and pairs
always, dust dropped or not; any other array a form holds was made for
its call alone, so writing into it changes no later form.  An entry is
replaced, never changed, under a lock, so a thread reading an entry that
another evicts or refills keeps a consistent one.  A one-shot CLI call
runs one program per process, so its layout is always new and it gains
nothing from the cache.

The operators are checked on the factored form, on every call, from
their masses |K_t|_F^2 = sum_bc <C_tb, C_tc> <M_b, M_c>: the Gram of
the coefficients, which does not depend on V and is cached, against the
metric of the basis, the sum over q of its column Grams
G_q[b, c] = <M_b e_q, M_c e_q>, which every form carries.  Every mass
must be finite; transcripts with ``|K_t|_F^2 < 1e-14`` are dropped as
dust, with their rows of coefficients, rows and pairs; and the rest must
sum to 1 within the bound of :func:`_checked`.
The Choi matrix J = sum_t vec(K_t) vec(K_t)† / d of :func:`channel_choi`
needs no check of its own: as a Gram matrix it is Hermitian and positive
semidefinite, and its trace is that checked sum (Watrous, *The Theory of
Quantum Information*, ch. 2).

Choi matrices here are normalized to trace 1.  No sampling is involved:
the branch ensemble is complete, so tests tolerate only floating-point
error.  Returned lists are sorted by transcript bits.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import threading

import numpy as np

from . import qsim
from .protocol import (
    AllocQubit,
    ApplyControlledLocal,
    ApplyLocal,
    ConditionalPauli,
    DiscardBit,
    MakeBellPair,
    MeasureZ,
    Program,
    WireRef,
    _wires_at,
    resource_census,
    validate_locality,
)
from .qsim import BRANCH_PRUNE, UnitaryMatrix

_PAULI = {"X": qsim.X.matrix, "Z": qsim.Z.matrix}
# Read-only amplitudes of fresh qubits: |0>, |1>, then (|00> + |11>)/sqrt(2).
_FRESH = tuple(qsim._freeze(np.array(amps, dtype=np.complex128))
               for amps in ([1, 0], [0, 1], np.array([1, 0, 0, 1]) / math.sqrt(2)))
# The basis {1} of a program without a slot: C_t0 is K_t itself; its one
# column Gram <1, 1> = 1, and its metric, the sum of its column Grams.
TRIVIAL_BASIS = qsim._freeze(np.ones((1, 1, 1), dtype=np.complex128))
TRIVIAL_GRAMS = qsim._freeze(np.ones((1, 1, 1), dtype=np.complex128))
TRIVIAL_METRIC = TRIVIAL_GRAMS[0]
# The coefficients of controlled(V) over {I, V}: P0 = |0><0| on I, P1 =
# |1><1| on V, row 0 of a form's ``rows`` (see _operands).
_CONTROL_HALVES = qsim._freeze(
    np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], dtype=np.complex128)
)
_REGISTER_DETAIL = " alive in one register (measured qubits are kept)"

# Layouts by program shape (see kraus_form), oldest first; the lock
# keeps two threads from evicting at once.
LAYOUT_CACHE_SIZE = 64
# The most complex entries of cached coefficients per layout (64 KiB;
# their Gram, rows and pairs come on top, see the module docstring).
BLOCK_CACHE_ENTRIES = 1 << 12
_LAYOUTS: dict[tuple, "_Layout"] = {}
_LAYOUTS_LOCK = threading.Lock()

Transcript = tuple[tuple[WireRef, int], ...]

# A channel's Kraus operators K_t = sum_b coeffs[t, b] ⊗ basis[b], for
# ``transcripts`` sorted by bits: coeffs is (T, B, r, r) and basis
# (B, m, m), with r * m = d; grams is the basis's (m, B, B) column Grams
# G_q[b, c] = <M_b e_q, M_c e_q> and metric their B×B sum <M_b, M_c>
# (TRIVIAL_GRAMS and TRIVIAL_METRIC over {1}); v is the slot gate's own
# matrix object (the gate's ``matrix``, not a copy), or None without a
# slot; census is the program's resource census.  With a slot and r = 2,
# rows is the (1 + T, 2, 2, 2) stack z = [P0, P1; X_t, Y_t],
# controlled(V)'s coefficients over {I, V} and then the K_t's, and pairs
# their (2, 1 + T, 2, 2, 2) column products (see column_pairs); both are
# None otherwise.
KrausForm = collections.namedtuple(
    "KrausForm", "transcripts coeffs basis grams metric v census rows pairs"
)


class ExecutionError(RuntimeError):
    """Internal inconsistency while executing a validated program (e.g. a
    conditional reading a bit that was never set)."""


@functools.lru_cache(maxsize=4 * LAYOUT_CACHE_SIZE)
def transcript_key(transcript: Transcript) -> str:
    """Report form of a transcript: ``"c1=0,c2=1"``, or ``"-"`` if empty.
    Cached: a sweep asks for the same few keys again and again."""
    return ",".join(f"{wire}={bit}" for wire, bit in transcript) or "-"


def kraus_form(p: Program) -> KrausForm:
    """The transcripts of ``p``, sorted by bits, and their Kraus operators
    in factored form: over {I, V} if ``p`` has a slot with gate V, else
    over {1} (see the module docstring).

    The program must pass :func:`validate_locality`, and its externals
    plus every qubit it allocates must fit :func:`qsim.max_qubits`.
    Every K_t must be finite.  Transcripts with ``|K_t|_F^2 < 1e-14`` are
    dropped (no unit input reaches them with probability 1e-14); the rest
    must satisfy sum_t |K_t|_F^2 / d = 1 within the bound of
    :func:`_checked`, which makes the channel trace preserving.

    Validation and the layout of the pass (:func:`_layout`) depend only
    on the shape of ``p`` (:func:`_shape`), so they run once per shape,
    and the pass itself runs only when the cached entry holds no
    coefficients for ``p``'s non-slot gates; the register cap is checked
    on every call.
    """
    key = _shape(p)
    layout = _LAYOUTS.get(key)
    if layout is None:
        _check_locality(p)
        check_register(p)
        layout = _layout(p)
        _store(key, layout)
    else:
        qsim.check_qubits(layout.width, "program", _REGISTER_DETAIL)
    instructions = p.instructions
    gates = tuple([instructions[i].gate for i in layout.gate_at])
    coeffs, gram, rows, pairs = layout.coeffs, layout.gram, layout.rows, layout.pairs
    fresh = coeffs is None or any(map(operator.is_not, gates, layout.gates))
    if fresh:
        coeffs = _coefficients(layout, instructions, p.n_external)
        gram = _gram(coeffs)
        rows, pairs = _operands(coeffs)
    if layout.slot is None:
        basis, grams, metric, v = TRIVIAL_BASIS, TRIVIAL_GRAMS, TRIVIAL_METRIC, None
    else:
        v = instructions[layout.slot].gate.matrix
        basis = np.empty((2,) + v.shape, dtype=np.complex128)
        basis[0], basis[1] = _identity(len(v)), v
        columns = basis.transpose(2, 1, 0)  # [q, x, b] = M_b[x, q]
        grams = columns.conj().transpose(0, 2, 1) @ columns
        metric = grams.sum(axis=0)
    transcripts, keep = _checked(layout, gram, metric, 1 << p.n_external)
    if fresh and coeffs.size <= BLOCK_CACHE_ENTRIES:
        qsim._freeze(coeffs)  # read-only exactly when cached (see the module docstring)
        qsim._freeze(gram)
        _store(key, layout._replace(gates=gates, coeffs=coeffs, gram=gram, rows=rows, pairs=pairs))
    if keep is not None:  # copies, read-only where what they copy is
        coeffs = coeffs[keep] if coeffs.flags.writeable else qsim._freeze(coeffs[keep])
        if rows is not None:
            kept = [True, *keep]  # controlled(V)'s row stays
            rows, pairs = qsim._freeze(rows[kept]), qsim._freeze(pairs[:, kept])
    return KrausForm(transcripts, coeffs, basis, grams, metric, v, layout.census, rows, pairs)


def kraus_stack(p: Program) -> tuple[list[Transcript], np.ndarray]:
    """The transcripts of ``p``, sorted by bits, and their Kraus operators
    as one dense (T, d, d) array, row t for transcript t: the
    :func:`kraus_form` of ``p``, assembled (see :func:`dense`)."""
    form = kraus_form(p)
    return form.transcripts, dense(form)


def dense(form: KrausForm) -> np.ndarray:
    """The (T, d, d) stack of the operators sum_b C_tb ⊗ M_b of ``form``
    (over the trivial basis, a view of the coefficients)."""
    coeffs, basis = form.coeffs, form.basis
    if basis is TRIVIAL_BASIS:
        return coeffs[:, 0]
    t, _, r, _ = coeffs.shape
    m = basis.shape[-1]
    return np.einsum("tbij,bxy->tixjy", coeffs, basis).reshape(t, r * m, r * m)


@functools.lru_cache(maxsize=None)
def _identity(m: int) -> np.ndarray:
    return qsim._freeze(np.eye(m, dtype=np.complex128))


def _check_locality(p: Program) -> None:
    """Refuse ``p`` if it fails :func:`validate_locality`; name three violations at most."""
    violations = validate_locality(p)
    if violations:
        summary = "; ".join(str(v) for v in violations[:3])
        raise ValueError(f"program fails locality validation: {summary}")


def check_register(p: Program) -> None:
    """Refuse ``p`` if its externals plus every qubit it allocates exceed
    :func:`qsim.max_qubits`: the register the unfactored pass holds."""
    qsim.check_qubits(_register_width(p), "program", _REGISTER_DETAIL)


def _register_width(p: Program) -> int:
    """Qubits the unfactored pass holds: the externals plus every qubit an
    instruction creates, since a measured qubit stays as its transcript axis."""
    return p.n_external + sum(
        role == "create" for ins in p.instructions for role, _, _ in ins._effects
    )


def _shape(p: Program) -> tuple:
    """What :func:`_layout` reads of ``p``, as a dict key: the externals,
    and each instruction with its gate matrix and label left out.  An
    instruction without a gate is hashable and taken whole; one with a
    gate, which makes it unhashable, is taken as its class and its
    compared fields but the last, the gate (the label is not compared)."""
    return p.externals, tuple([
        ins if type(ins).__hash__ else (type(ins), *ins._key[:-1])
        for ins in p.instructions
    ])


def _store(key: tuple, layout: "_Layout") -> None:
    """Put ``layout`` in the cache under ``key``, evicting the oldest entry
    if ``key`` is new and the cache is full."""
    with _LAYOUTS_LOCK:
        if key not in _LAYOUTS and len(_LAYOUTS) >= LAYOUT_CACHE_SIZE:
            del _LAYOUTS[next(iter(_LAYOUTS))]  # the oldest
        _LAYOUTS[key] = layout


# The structure of one pass over a program, without its numbers: the
# unfactored register ``width`` that the cap counts; ``steps`` in program
# order, of two kinds: ``(None, j)`` tensors ``_FRESH[j]`` after the live
# qubits, and ``(source, perm, inverse, controlled)`` applies, on the
# axes ``perm`` brings to the front, the gate of instruction ``source``
# (an index) or the Pauli ``source`` names (a slot is a fresh |0> and an
# "X" controlled by the slot's control: no step reads its gate);
# ``order``, which puts the measured axes first for the final reshape;
# ``transcripts``, every outcome of the measured bits in bit order;
# ``trace_atol``, the bound of :func:`_checked`; ``slot``, the slot's
# index or None; ``gate_at``, the indices of the gates the pass reads;
# ``census``, the program's :func:`resource_census`, which reads only
# instruction classes and ``SendBit.to_party``, both kept by the shape;
# and ``gates``, ``coeffs``, ``gram``, ``rows`` and ``pairs``, those
# gates, the read-only coefficients a pass over them gave, their
# (T, B, B) :func:`_gram` and their :func:`_operands`, every row of the
# layout's transcripts kept (dust is dropped per call), or None.  Not a
# typing.NamedTuple, which adds ~0.5 ms to every CLI start (CPython 3.11).
_Layout = collections.namedtuple(
    "_Layout",
    "width steps order transcripts trace_atol slot gate_at census gates coeffs gram rows pairs",
)


def _slot(p: Program) -> int | None:
    """The index of ``p``'s slot: the ``ApplyControlledLocal`` whose
    targets are the trailing external wires, in order, if no other
    instruction names any of them (so there is at most one); else None."""
    ext = p.external_wires
    for i, ins in enumerate(p.instructions):
        if isinstance(ins, ApplyControlledLocal) and ins.targets == ext[len(ext) - len(ins.targets):]:
            targets = set(ins.targets)
            if all(j == i or targets.isdisjoint(_wires_at(other, field))
                   for j, other in enumerate(p.instructions) for _, field, _ in other._effects):
                return i
    return None


def _layout(p: Program) -> _Layout:
    """Lay out the straight-line pass over ``p`` (see :func:`_run`).

    Measurement is deferred: a measured qubit keeps its axis as the
    record of its outcome, and a conditional Pauli is controlled on that
    axis.  A slot's targets get no axis: the slot becomes a fresh |0>
    basis qubit and a CNOT onto it from the slot's control.  Reads only
    what :func:`_shape` keeps of ``p``.
    """
    slot = _slot(p)
    kept = p.n_external - (0 if slot is None else len(p.instructions[slot].targets))
    axes = {w: a for a, w in enumerate(p.external_wires[:kept])}  # quantum wire or readable bit -> axis
    ndim = kept + 1  # the qubit axes, then the batch axis
    steps: list[tuple] = []
    measured: list[tuple[WireRef, int]] = []
    defect = 0.0  # sum over gates of 2^(qubits the gate acts on) * _UNITARY_ATOL
    for i, ins in enumerate(p.instructions):
        if isinstance(ins, AllocQubit):
            axes[ins.wire] = ndim - 1
            ndim += 1
            steps.append((None, ins.basis_value))
        elif isinstance(ins, MakeBellPair):
            axes[ins.left], axes[ins.right] = ndim - 1, ndim
            ndim += 2
            steps.append((None, 2))
        elif isinstance(ins, ApplyLocal):
            steps.append((i, *_permutation(ndim, _positions(axes, ins.wires)), False))
            defect += (1 << len(ins.wires)) * qsim._UNITARY_ATOL
        elif isinstance(ins, ApplyControlledLocal):
            if i == slot:  # a fresh |0>, flipped where the control is |1>
                steps.append((None, 0))
                ndim += 1
                targets = _positions(axes, (ins.control,)) + (ndim - 2,)
                steps.append(("X", *_permutation(ndim, targets), True))
            else:
                targets = _positions(axes, (ins.control, *ins.targets))
                steps.append((i, *_permutation(ndim, targets), True))
            defect += (1 << len(ins.targets)) * qsim._UNITARY_ATOL
        elif isinstance(ins, MeasureZ):
            (axis,) = _positions(axes, (ins.wire,))
            del axes[ins.wire]
            axes[ins.out] = axis
            measured.append((ins.out, axis))
        elif isinstance(ins, ConditionalPauli):
            if ins.condition not in axes:
                raise ExecutionError(
                    f"conditional pauli reads unset classical wire {ins.condition}"
                )
            positions = _positions(axes, (ins.condition, ins.wire))
            steps.append((ins.pauli, *_permutation(ndim, positions), True))
        elif isinstance(ins, DiscardBit):
            axes.pop(ins.wire, None)  # the axis stays in the transcript
        # a SendBit routes a bit between parties only: no effect on the state
    bits = tuple(bit for bit, _ in measured)
    bit_axes = tuple(axis for _, axis in measured)
    order = bit_axes + tuple(a for a in range(ndim) if a not in bit_axes)
    transcripts = tuple(tuple(zip(bits, o)) for o in itertools.product((0, 1), repeat=len(bits)))
    gate_at = tuple(step[0] for step in steps if type(step[0]) is int)
    return _Layout(_register_width(p), tuple(steps), order, transcripts, 1e-12 + math.expm1(defect),
                   slot, gate_at, resource_census(p), None, None, None, None, None)


def _coefficients(layout: _Layout, instructions: tuple, n_external: int) -> np.ndarray:
    """The (T, B, r, r) coefficients that :func:`_run`'s pass gives for
    every transcript of ``layout``, dust included, from the identity on
    the kept externals: an output's basis index b is the value of the
    slot's basis qubit, 0 for X_t and 1 for Y_t (B = 2), or none
    without a slot (B = 1)."""
    kept = n_external - (0 if layout.slot is None else len(instructions[layout.slot].targets))
    r = 1 << kept
    out = _run(layout, instructions, np.eye(r, dtype=np.complex128).reshape((2,) * kept + (r,)))
    return out.reshape(len(layout.transcripts), r, -1, r).transpose(0, 2, 1, 3)


def _run(layout: _Layout, instructions: tuple, batch: np.ndarray) -> np.ndarray:
    """Run the pass ``layout`` over every transcript at the same time,
    reading each gate matrix from ``instructions``.

    ``batch`` has one axis of size 2 per external wire the pass keeps
    (every one but a slot's targets), in order, then one batch axis.
    Returns a (2^m, rest, batch) array for the m measured bits: row t
    holds the unnormalized output of transcript t of
    ``layout.transcripts``, over the unmeasured qubits in axis order:
    the kept externals, then a slot's basis qubit.

    Controlled gates and conditional Paulis rewrite the register in
    place (see :func:`_apply`), so ``batch`` must be an array the caller
    hands over.
    """
    psi = batch
    for step in layout.steps:
        source = step[0]
        if source is None:
            psi = _append_qubits(psi, _FRESH[step[1]])
        else:
            _, perm, inverse, controlled = step
            u = _PAULI[source] if source in _PAULI else instructions[source].gate.matrix
            psi = _apply(psi, perm, inverse, u, controlled)
    return psi.transpose(layout.order).reshape(len(layout.transcripts), -1, psi.shape[-1])


def _gram(a: np.ndarray) -> np.ndarray:
    """The inner products <A_b, A_c> = tr(A_b† A_c) of the matrices A_b
    on the last two axes of ``a``, b running over the axis before them:
    the (T, B, B) Gram of (T, B, r, r) coefficients."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return flat.conj() @ flat.swapaxes(-1, -2)


def _checked(
    layout: _Layout, gram: np.ndarray, metric: np.ndarray, d: int
) -> tuple[list[Transcript], list[bool] | None]:
    """Check the Kraus operators of a channel on d dimensions, one per
    transcript of ``layout``, from their masses |K_t|_F^2 =
    sum_bc <C_tb, C_tc> <M_b, M_c>, read off ``gram``, the :func:`_gram`
    of their coefficients, and the B×B ``metric`` <M_b, M_c> of their
    basis, the sum of its column Grams.  Every mass must be finite (the
    metric's diagonal is positive, so a non-finite coefficient makes its
    transcript's mass non-finite, which the dust test alone would read as
    dust); masses below 1e-14 are dust, and the rest must sum to d within
    ``layout.trace_atol``, the bound that the gates' own check admits.
    Returns the kept transcripts and which rows to keep, None when every
    row is kept.

    A gate on m qubits is built with G†G = I + E, |E_ij| <= 1e-10
    (``qsim._UNITARY_ATOL``), so |E|_op <= 2^m * 1e-10 =: eps; m counts
    only the targets of a controlled gate, whose defect is diag(0, E),
    and conditional Paulis are exact.  A gate changes the register's
    total mass by psi†(I ⊗ E)psi, at most eps times that mass, so over
    all gates the mass over d stays within prod(1 + eps_i) - 1 <=
    expm1(sum eps_i) of 1.  1e-12 on top covers rounding.
    """
    b = len(metric)
    masses = (gram.reshape(-1, b * b) @ metric.reshape(b * b)).real.tolist()
    if not all(map(math.isfinite, masses)):
        raise ExecutionError("Kraus operators must be finite")
    keep = [mass >= BRANCH_PRUNE for mass in masses]
    total = sum(itertools.compress(masses, keep)) / d
    if abs(total - 1.0) > layout.trace_atol:
        raise ExecutionError(f"channel is not trace preserving: sum |K_t|^2 / d = {total!r}")
    if all(keep):
        return list(layout.transcripts), None
    return list(itertools.compress(layout.transcripts, keep)), keep


def _operands(coeffs: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """What the verifier reads over {I, V} of the (T, 2, 2, 2)
    coefficients of a program with a slot and r = 2: the rows
    z = [P0, P1; X_t, Y_t] (controlled(V)'s coefficients, then the
    coefficients) and their :func:`column_pairs`, both read-only.
    Neither depends on V.  (None, None) for every other shape of
    coefficients."""
    if coeffs.shape[1:] != (2, 2, 2):
        return None, None
    rows = np.empty((1 + len(coeffs), 2, 2, 2), dtype=np.complex128)
    rows[0] = _CONTROL_HALVES
    rows[1:] = coeffs
    return qsim._freeze(rows), qsim._freeze(column_pairs(rows))


def column_pairs(z: np.ndarray) -> np.ndarray:
    """The (2, U, n, B, B) column pair products of the (U, B, x, n) rows
    ``z``: [0, u, i, b, c] = <z_ub e_i, z_uc e_i> and [1, u, i, b, c] =
    <z_0b e_i, z_uc e_i>, for the n columns e_i.  With B = 1 they are the
    squared norms of the columns of z_u and their overlaps with those of
    z_0; the verifier reads them so for the images of its probes and for
    the rows [S; K_t] over {1}."""
    left = z.conj()
    u, b, _, n = z.shape
    pairs = np.empty((2, u, n, b, b), dtype=np.complex128)
    np.einsum("ubxi,ucxi->uibc", left, z, out=pairs[0])
    np.einsum("bxi,ucxi->uibc", left[0], z, out=pairs[1])
    return pairs


def _append_qubits(psi: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Tensor fresh qubits in state ``amps`` after the live ones."""
    grown = psi[..., None, :] * amps[:, None]
    return grown.reshape(psi.shape[:-1] + (2,) * (amps.size.bit_length() - 1) + psi.shape[-1:])


def _apply(
    psi: np.ndarray,
    perm: tuple[int, ...],
    inverse: tuple[int, ...],
    u: np.ndarray,
    controlled: bool = False,
) -> np.ndarray:
    """Apply ``u`` to the qubit axes that ``perm`` brings to the front, in
    order (the first most significant); ``inverse`` undoes ``perm`` (see
    :func:`_permutation`).  If ``controlled``, the first of those axes is
    a control and ``u`` acts on the rest where it is |1>.

    A controlled gate is applied in place: only the control-1 half of
    ``psi`` is read and rewritten, ``psi`` itself is returned, and the
    caller must own it.  Otherwise the result is a new array."""
    front = psi.transpose(perm)
    if controlled:
        block = front[1]
        block[...] = (u @ block.reshape(u.shape[0], -1)).reshape(block.shape)
        return psi
    return (u @ front.reshape(u.shape[0], -1)).reshape(front.shape).transpose(inverse)


def _permutation(ndim: int, positions: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis order that brings ``positions`` to the front, in order, and
    its inverse."""
    perm = positions + tuple(a for a in range(ndim) if a not in positions)
    inverse = [0] * ndim
    for i, a in enumerate(perm):
        inverse[a] = i
    return perm, tuple(inverse)


def _positions(axes: dict[WireRef, int], targets: tuple[WireRef, ...]) -> tuple[int, ...]:
    try:
        return tuple([axes[t] for t in targets])
    except KeyError as exc:
        raise ExecutionError(f"instruction touches missing quantum wire {exc.args[0]}") from None


def channel_choi(p: Program) -> np.ndarray:
    """Dense, read-only Choi matrix of the channel ``p`` implements on its
    external wires: output qubits first (most significant), reference
    qubits after.

    Refused, before anything is allocated, when running the program beside
    an n-qubit reference register would exceed :func:`qsim.max_qubits`:
    the matrix has 4^n entries.
    """
    n, width = p.n_external, _register_width(p)
    detail = f" ({width} for the program, {n} for the reference)"
    qsim.check_qubits(n + width, "dense Choi matrix", detail)
    ops = kraus_stack(p)[1]
    # Columns vec(K_t)/sqrt(d), row-major (output index first): J is the
    # sum of their outer products.
    v = ops.reshape(len(ops), -1).T / math.sqrt(ops.shape[1])
    j = v @ v.conj().T
    j.flags.writeable = False
    return j


def kraus_choi_distance(kraus: np.ndarray | list[np.ndarray], u: UnitaryMatrix) -> float:
    """Frobenius distance between the Choi matrices of the channel with
    Kraus operators ``kraus`` (a (T, d, d) stack, or a list of d×d arrays)
    and of ``u``, without forming either matrix: :func:`choi_residual`
    over the trivial basis."""
    ops = np.asarray(kraus)
    if ops.ndim != 3 or ops.shape[1:] != u.matrix.shape:
        raise ValueError(f"Kraus operators do not match the dimension {u.dim} of the unitary")
    z = np.concatenate((u.matrix[None], ops))[:, None]
    flat = z.reshape(len(z), -1)
    return choi_residual(z, TRIVIAL_BASIS, TRIVIAL_METRIC, flat[0].conj() @ flat.T)


def choi_residual(
    z: np.ndarray, basis: np.ndarray, metric: np.ndarray, onto: np.ndarray
) -> float:
    """Frobenius distance between the Choi matrices of a unitary U and of
    the channel with Kraus operators K_t, all written over ``basis``: row
    0 of the (1 + T, B, r, r) array ``z`` holds the coefficients of U and
    row 1 + t those of K_t, so that K_t = sum_b z[1 + t, b] ⊗ basis[b];
    ``metric`` is the B×B matrix <M_b, M_c> of the basis, the sum of its
    column Grams (unread over the trivial basis {1}, where it is 1 and
    the coefficients are the operators themselves), and ``onto`` the
    inner products <U, Z_u> of U with every row, itself first.

    Each K_t splits into its projection on U and a residual orthogonal to
    it: K_t = a_t U + E_t with a_t = <U, K_t>/|U|_F^2.  With n = |U|_F^2/d,
    c = sum_t |a_t|^2 - 1, w = sum_t conj(a_t) E_t and G the T×T Gram
    matrix of the E_t, the difference of the Choi matrices has

        |ΔJ|_F^2 = c^2 n^2 + 2 n |w|^2 / d + |G|_F^2 / d^2

    (the three parts are orthogonal).  Every term is a small quantity
    computed directly, so nothing cancels when the channels agree, unlike
    sqrt(pᵀGp - 2pᵀo + 1) from the Gram matrix of the K_t and U: the
    coefficients of E_t are differences of coefficients, G reads them
    through the metric, G_ts = sum_bc <e_tb, e_sc> <M_b, M_c>, and w, the
    one part linear in the E_t, is assembled on the wires and normed
    there, so that coefficients that cancel across a nearly dependent
    basis cannot leave a floor of sqrt(1e-16) under the distance.  c is
    taken from the a_t, not from trace preservation, which holds only
    within :func:`_checked`'s bound, and a_t divides by |U|_F^2, not d,
    so U need be unitary only within its construction check.
    """
    u, b = z.shape[:2]
    d = z.shape[-1] * basis.shape[-1]
    norm2 = float(onto[0].real)
    a = onto[1:] / norm2
    # E_t, without a second temporary.
    resid = a[:, None, None, None] * z[0]
    np.subtract(z[1:], resid, out=resid)
    rows = resid.reshape(u - 1, -1)
    w = a.conj() @ rows
    if basis is TRIVIAL_BASIS:  # the metric is 1 and the wires are the coefficients
        gram = rows.conj() @ rows.T
    else:
        gram = rows.conj() @ (metric @ rows.reshape(u - 1, b, -1)).reshape(u - 1, -1).T
        w = w.reshape(b, -1).T @ basis.reshape(b, -1)
    c = float(np.vdot(a, a).real) - 1.0
    n = norm2 / d
    cross = float(np.vdot(w, w).real)
    residual = float(np.vdot(gram, gram).real)
    return math.sqrt((c * n) ** 2 + 2.0 * n * cross / d + residual / d**2)
