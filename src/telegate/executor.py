"""Exact execution of protocol programs.

:func:`kraus_stack` is the one execution primitive.  It runs a program
once, in one straight-line pass that covers every classical transcript,
on the d×d identity (d = 2^n for n external wires), so that each
transcript t ends as the Kraus operator K_t of the channel the program
implements: the branch output for input psi is ``K_t @ psi``
(unnormalized) and its probability is ``|K_t psi|^2``; for a basis input
e_j that output is column j of K_t, so no product is needed.  A program built
by the builder has at most four transcripts, so everything downstream is
small, and every other function here reads that stack:

* :func:`kraus_choi_distance` compares the channel with a unitary U from
  the projections a_t = tr(U†K_t)/|U|_F^2 and the T×T Gram matrix of the
  residuals K_t - a_t U, in O(T^2 d^2) and with no factorization;
* :func:`channel_choi` assembles the dense Choi matrix
  J = sum_t vec(K_t) vec(K_t)† / d, for callers that need the matrix
  itself.  J needs no check of its own: as a Gram matrix it is Hermitian
  and positive semidefinite, and its trace sum_t |K_t|_F^2 / d is 1
  within the bound of :func:`_checked` because :func:`kraus_stack`
  checks exactly that sum on the operators it returns (Watrous, *The
  Theory of Quantum Information*, ch. 2).

:func:`_run` and :func:`_apply` are the only code that evolves or
measures a state.  Measurement is deferred (Nielsen & Chuang §4.4): a
measured qubit stays in the register as the record of its outcome, a
conditional Pauli becomes a Pauli controlled on that record, and at the
end the records index the transcripts.  The register therefore holds
the external wires plus every qubit the program allocates, and that is
what the qubit cap counts; branch outputs cover exactly the external
wires.

The pass is split in two.  :func:`_layout` works out everything that
depends only on the program's *shape* (:func:`_shape`: its externals,
and each instruction with its gate matrix and label left out): the
register width, each step's axis permutation, the final axis order and
every transcript.  :func:`_run` then applies the numbers, reading each
gate matrix from the program by index.  Every program the builder makes
for one k has one shape, so :func:`kraus_stack` validates and lays out
a shape once and keeps the layout in a cache of at most
:data:`LAYOUT_CACHE_SIZE` shapes, oldest out first.  The cache holds no
arrays, and an invalid program never enters it.  The qubit cap is
checked on every call, since ``TELEGATE_MAX_QUBITS`` may change between
calls.  A one-shot CLI call runs one program per process, so its layout
is always new and it gains nothing from the cache.

Choi matrices here are normalized to trace 1.  No sampling is involved:
the branch ensemble is complete, so tests tolerate only floating-point
error.  Returned lists are sorted by transcript bits.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
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
    SendBit,
    WireRef,
    validate_locality,
)
from .qsim import BRANCH_PRUNE, UnitaryMatrix

_PAULI = {"X": qsim.X.matrix, "Z": qsim.Z.matrix}
# Read-only amplitudes of fresh qubits: |0>, |1>, then (|00> + |11>)/sqrt(2).
_FRESH = tuple(qsim._freeze(np.array(amps, dtype=np.complex128))
               for amps in ([1, 0], [0, 1], np.array([1, 0, 0, 1]) / math.sqrt(2)))
_REGISTER_DETAIL = " alive in one register (measured qubits are kept)"

# Layouts by program shape (see kraus_stack), oldest first; the lock
# keeps two threads from evicting at once.
LAYOUT_CACHE_SIZE = 64
_LAYOUTS: dict[tuple, "_Layout"] = {}
_LAYOUTS_LOCK = threading.Lock()

Transcript = tuple[tuple[WireRef, int], ...]


class ExecutionError(RuntimeError):
    """Internal inconsistency while executing a validated program (e.g. a
    conditional reading a bit that was never set)."""


@functools.lru_cache(maxsize=4 * LAYOUT_CACHE_SIZE)
def transcript_key(transcript: Transcript) -> str:
    """Report form of a transcript: ``"c1=0,c2=1"``, or ``"-"`` if empty.
    Cached: a sweep asks for the same few keys again and again."""
    return ",".join(f"{wire}={bit}" for wire, bit in transcript) or "-"


def kraus_stack(p: Program) -> tuple[list[Transcript], np.ndarray]:
    """The transcripts of ``p``, sorted by bits, and their Kraus operators
    as one (T, d, d) array, row t for transcript t.

    The program must pass :func:`validate_locality`, and its externals
    plus every qubit it allocates must fit :func:`qsim.max_qubits`.
    Transcripts with ``|K_t|_F^2 < 1e-14`` are dropped (no unit input
    reaches them with probability 1e-14); the rest must be finite and
    satisfy sum_t |K_t|_F^2 / d = 1 within the bound of :func:`_checked`,
    which makes the channel trace preserving.

    Validation and the layout of the pass (:func:`_layout`) depend only
    on the shape of ``p`` (:func:`_shape`), so they run once per shape and
    the layout is kept in a cache of at most :data:`LAYOUT_CACHE_SIZE`
    entries; the register cap, which can change between calls, is checked
    on every call.
    """
    key = _shape(p)
    layout = _LAYOUTS.get(key)
    if layout is None:
        violations = validate_locality(p)
        if violations:
            summary = "; ".join(str(v) for v in violations[:3])
            raise ValueError(f"program fails locality validation: {summary}")
        check_register(p)
        layout = _layout(p)
        with _LAYOUTS_LOCK:
            if len(_LAYOUTS) >= LAYOUT_CACHE_SIZE:
                del _LAYOUTS[next(iter(_LAYOUTS))]  # the oldest
            _LAYOUTS[key] = layout
    else:
        qsim.check_qubits(layout.width, "program", _REGISTER_DETAIL)
    n = p.n_external
    d = 1 << n
    batch = np.eye(d, dtype=np.complex128).reshape((2,) * n + (d,))
    return _checked(layout, _run(layout, p.instructions, batch))


def check_register(p: Program) -> None:
    """Refuse ``p`` if its externals plus every qubit it allocates exceed
    :func:`qsim.max_qubits`: the register :func:`kraus_stack` would hold."""
    qsim.check_qubits(_register_width(p), "program", _REGISTER_DETAIL)


def _register_width(p: Program) -> int:
    """Qubits the pass holds: the externals plus every allocated qubit,
    since a measured qubit stays as its transcript axis."""
    width = p.n_external
    for ins in p.instructions:
        if isinstance(ins, AllocQubit):
            width += 1
        elif isinstance(ins, MakeBellPair):
            width += 2
    return width


def _shape(p: Program) -> tuple:
    """What :func:`_layout` reads of ``p``, as a dict key: the externals,
    and each instruction with its gate matrix and label left out (the
    instructions that carry neither are taken whole)."""
    return p.externals, tuple([
        (ApplyLocal, ins.party, ins.wires) if isinstance(ins, ApplyLocal)
        else (ApplyControlledLocal, ins.party, ins.control, ins.targets)
        if isinstance(ins, ApplyControlledLocal)
        else ins
        for ins in p.instructions
    ])


# The structure of one pass over a program, without its numbers: the
# register ``width``; ``steps`` in program order, where ``(None, j)``
# tensors ``_FRESH[j]`` after the live qubits and ``(source, perm,
# inverse, controlled)`` applies, on the axes ``perm`` brings to the
# front, the gate of instruction ``source`` (an index) or the Pauli
# ``source`` names; ``order``, which puts the measured axes first for the
# final reshape; ``transcripts``, every outcome of the measured bits in
# bit order; and ``trace_atol``, the bound of :func:`_checked`.  Not a
# typing.NamedTuple, which adds ~0.5 ms to every CLI start (CPython 3.11).
_Layout = collections.namedtuple("_Layout", "width steps order transcripts trace_atol")


def _layout(p: Program) -> _Layout:
    """Lay out the straight-line pass over ``p`` (see :func:`_run`).

    Measurement is deferred: a measured qubit keeps its axis as the
    record of its outcome, and a conditional Pauli is controlled on that
    axis.  Reads only what :func:`_shape` keeps of ``p``.
    """
    axes = {w: a for a, w in enumerate(p.external_wires)}  # quantum wire or readable bit -> axis
    ndim = p.n_external + 1  # the qubit axes, then the batch axis
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
        elif isinstance(ins, SendBit):
            pass  # classical routing only; no effect on the state
        else:  # pragma: no cover - union is closed
            raise TypeError(f"unknown instruction {ins!r}")
    bits = tuple(bit for bit, _ in measured)
    bit_axes = tuple(axis for _, axis in measured)
    order = bit_axes + tuple(a for a in range(ndim) if a not in bit_axes)
    transcripts = tuple(tuple(zip(bits, o)) for o in itertools.product((0, 1), repeat=len(bits)))
    return _Layout(ndim - 1, tuple(steps), order, transcripts, 1e-12 + math.expm1(defect))


def _run(layout: _Layout, instructions: tuple, batch: np.ndarray) -> np.ndarray:
    """Run the pass ``layout`` over every transcript at the same time,
    reading each gate matrix from ``instructions``.

    ``batch`` has one axis of size 2 per external wire, in order, then one
    batch axis.  Returns a (2^m, rest, batch) array for the m measured
    bits: row t holds the unnormalized output of transcript t of
    ``layout.transcripts``, over the unmeasured qubits in axis order.

    Controlled gates and conditional Paulis rewrite the register in
    place (see :func:`_apply`), so ``batch`` must be an array the caller
    hands over: :func:`kraus_stack` passes a fresh one.
    """
    psi = batch
    for step in layout.steps:
        source = step[0]
        if source is None:
            psi = _append_qubits(psi, _FRESH[step[1]])
            continue
        _, perm, inverse, controlled = step
        u = _PAULI[source] if source in _PAULI else instructions[source].gate.matrix
        psi = _apply(psi, perm, inverse, u, controlled)
    return psi.transpose(layout.order).reshape(len(layout.transcripts), -1, psi.shape[-1])


def _checked(layout: _Layout, stack: np.ndarray) -> tuple[list[Transcript], np.ndarray]:
    """Drop the dust rows of ``layout``'s :func:`_run` result ``stack`` and
    check the rest: finite, with total mass equal to the batch size within
    ``layout.trace_atol``, the bound that the gates' own check admits.

    A gate on m qubits is built with G†G = I + E, |E_ij| <= 1e-10
    (``qsim._UNITARY_ATOL``), so |E|_op <= 2^m * 1e-10 =: eps; m counts
    only the targets of a controlled gate, whose defect is diag(0, E),
    and conditional Paulis are exact.  A gate changes the register's
    total mass by psi†(I ⊗ E)psi, at most eps times that mass, so over
    all gates the mass over the batch size stays within
    prod(1 + eps_i) - 1 <= expm1(sum eps_i) of 1.  1e-12 on top covers
    rounding.
    """
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1).view(np.float64)
    if not np.isfinite(flat).all():
        raise ExecutionError("Kraus operators must be finite")
    mass = np.einsum("ti,ti->t", flat, flat)
    keep = mass >= BRANCH_PRUNE
    total = float(mass[keep].sum()) / stack.shape[-1]
    if abs(total - 1.0) > layout.trace_atol:
        raise ExecutionError(f"channel is not trace preserving: sum |K_t|^2 / d = {total!r}")
    return list(itertools.compress(layout.transcripts, keep)), stack[keep]


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
    and of ``u``, without forming either matrix.

    Each K_t splits into its projection on U and a residual orthogonal to
    it: K_t = a_t U + E_t with a_t = tr(U†K_t)/|U|_F^2.  With n = |U|_F^2/d,
    c = sum_t |a_t|^2 - 1, w = sum_t conj(a_t) vec(E_t) and G the T×T Gram
    matrix of the vec(E_t), the difference of the Choi matrices has

        |ΔJ|_F^2 = c^2 n^2 + 2 n |w|^2 / d + |G|_F^2 / d^2

    (the three parts are orthogonal).  Every term is a small quantity
    computed directly, so nothing cancels when the channels agree, unlike
    sqrt(pᵀGp - 2pᵀo + 1) from the Gram matrix of the K_t and U.  c is
    taken from the a_t, not from trace preservation, which holds only
    within :func:`_checked`'s bound, and a_t divides by |U|_F^2, not d,
    so ``u`` need be unitary only within its construction check.
    """
    ops = np.asarray(kraus)
    if ops.ndim != 3 or ops.shape[1:] != u.matrix.shape:
        raise ValueError(f"Kraus operators do not match the dimension {u.dim} of the unitary")
    d = u.dim
    vec_u = u.matrix.reshape(-1)
    norm2 = float(np.vdot(vec_u, vec_u).real)
    flat = ops.reshape(len(ops), -1)
    a = (flat @ vec_u.conj()) / norm2
    resid = flat - a[:, None] * vec_u
    c = float(np.vdot(a, a).real) - 1.0
    n = norm2 / d
    w = a.conj() @ resid
    gram = resid.conj() @ resid.T
    cross = float(np.vdot(w, w).real)
    residual = float(np.vdot(gram, gram).real)
    return math.sqrt((c * n) ** 2 + 2.0 * n * cross / d + residual / d**2)
