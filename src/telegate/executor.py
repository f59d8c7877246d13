"""Exact execution of protocol programs.

:func:`kraus_branches` is the one execution primitive.  It runs a
program once, depth-first over every classical transcript, on the d×d
identity (d = 2^n for n external wires), so that each transcript t ends
as the Kraus operator K_t of the channel the program implements: the
branch output for input psi is ``K_t @ psi`` (unnormalized) and its
probability is ``|K_t psi|^2``.  A program built by the builder has at
most four transcripts, so everything downstream is small:

* :func:`run_branches` is a normalizing view for one input state;
* :func:`kraus_choi_distance` compares the channel with a unitary in the
  span of the at most five vectors vec(K_t) and vec(U);
* :func:`channel_choi` assembles the dense Choi matrix
  sum_t vec(K_t) vec(K_t)† / d, for callers that need the matrix itself.

:func:`_walk` and :func:`_apply` are the only code that evolves or
measures a state.  Measuring a qubit removes it from the register: an
n-qubit state branches into (n-1)-qubit states, so branch outputs cover
exactly the external wires.

Choi matrices here are normalized to trace 1.  No sampling is involved:
the branch ensemble is complete, so tests tolerate only floating-point
error.  Returned lists are sorted by transcript bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
from .qsim import BRANCH_PRUNE, StateVector, UnitaryMatrix

_PAULI = {"X": qsim.X.matrix, "Z": qsim.Z.matrix}
_BASIS = tuple(StateVector.from_bits(b).amplitudes for b in "01")
_BELL = qsim.bell_pair().amplitudes

Transcript = tuple[tuple[WireRef, int], ...]


@dataclass(frozen=True)
class BranchOutcome:
    """One classical history: the measured bits in program order, the exact
    probability of that history, and the final state of the external wires."""

    transcript: Transcript
    probability: float
    final_state: StateVector

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(bit for _, bit in self.transcript)


@dataclass(frozen=True)
class ChoiMatrix:
    """Trace-1 Choi matrix of a channel on n qubits (dimension 4^n).

    Index convention: output system qubits first (most significant),
    reference qubits after.  Construction checks Hermiticity (1e-12),
    unit trace (1e-12) and positive semidefiniteness (eigenvalues above
    -1e-10).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Choi matrix must be square, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValueError("Choi matrix must be Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"Choi matrix must have trace 1, got {tr}")
        if float(np.linalg.eigvalsh(m).min()) < -1e-10:
            raise ValueError("Choi matrix must be positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class ExecutionError(RuntimeError):
    """Internal inconsistency while executing a validated program (e.g. a
    conditional reading a bit that was never set)."""


def transcript_key(transcript: Transcript) -> str:
    """Report form of a transcript: ``"c1=0,c2=1"``, or ``"-"`` if empty."""
    return ",".join(f"{wire}={bit}" for wire, bit in transcript) or "-"


def kraus_branches(p: Program) -> list[tuple[Transcript, np.ndarray]]:
    """The ``(transcript, K_t)`` pairs of ``p``, sorted by transcript bits.

    ``K_t`` is a d×d array (d = 2^n_external): column j is the
    unnormalized output of transcript t for basis input j.  The program
    must pass :func:`validate_locality` and keep at most
    :func:`qsim.max_qubits` qubits alive at once.  Transcripts with
    ``|K_t|_F^2 < 1e-14`` are dropped (no unit input reaches them with
    probability 1e-14); the rest must satisfy sum_t |K_t|_F^2 / d = 1
    within 1e-12, which makes the channel trace preserving.
    """
    violations = validate_locality(p)
    if violations:
        summary = "; ".join(str(v) for v in violations[:3])
        raise ValueError(f"program fails locality validation: {summary}")
    qsim.check_qubits(_register_width(p), "program", " alive at once")
    n = p.n_external
    d = 1 << n
    batch = np.eye(d, dtype=np.complex128).reshape((2,) * n + (d,))
    leaves = _walk(p.instructions, batch, list(p.external_wires))
    leaves.sort(key=lambda leaf: [bit for _, bit in leaf[0]])
    kraus = [(transcript, psi.reshape(d, d)) for transcript, psi in leaves]
    if not all(np.isfinite(k.view(np.float64)).all() for _, k in kraus):
        raise ExecutionError("Kraus operators must be finite")
    mass = sum(float(np.vdot(k, k).real) for _, k in kraus) / d
    if abs(mass - 1.0) > 1e-12:
        raise ExecutionError(f"channel is not trace preserving: sum |K_t|^2 / d = {mass!r}")
    return kraus


def _register_width(p: Program) -> int:
    """Most qubits alive at once while ``p`` runs, externals included."""
    live = width = p.n_external
    for ins in p.instructions:
        if isinstance(ins, AllocQubit):
            live += 1
        elif isinstance(ins, MakeBellPair):
            live += 2
        elif isinstance(ins, MeasureZ):
            live -= 1
        width = max(width, live)
    return width


def _walk(
    instructions: tuple, batch: np.ndarray, wires: list[WireRef]
) -> list[tuple[Transcript, np.ndarray]]:
    """Depth-first branch enumeration over a batch of unnormalized states.

    ``batch`` has one axis of size 2 per live qubit, in the order of
    ``wires``, then one batch axis.  Measurements project without
    renormalizing, so each leaf carries its transcript's operator.
    """
    out: list[tuple[Transcript, np.ndarray]] = []
    # stack entries: (next instruction index, batch, wire order, env, transcript)
    stack = [(0, batch, wires, {}, ())]
    while stack:
        idx, psi, wires, env, transcript = stack.pop()
        advancing = True
        while advancing and idx < len(instructions):
            ins = instructions[idx]
            idx += 1
            if isinstance(ins, AllocQubit):
                psi = _append_qubits(psi, _BASIS[ins.basis_value])
                wires = wires + [ins.wire]
            elif isinstance(ins, MakeBellPair):
                psi = _append_qubits(psi, _BELL)
                wires = wires + [ins.left, ins.right]
            elif isinstance(ins, ApplyLocal):
                psi = _apply(psi, _positions(wires, ins.wires), ins.gate.matrix)
            elif isinstance(ins, ApplyControlledLocal):
                targets = (ins.control, *ins.targets)
                psi = _apply(psi, _positions(wires, targets), ins.gate.matrix, controlled=True)
            elif isinstance(ins, MeasureZ):
                (pos,) = _positions(wires, (ins.wire,))
                rest = wires[:pos] + wires[pos + 1:]
                advancing = False
                for outcome in (0, 1):
                    part = np.take(psi, outcome, axis=pos)
                    if np.vdot(part, part).real < BRANCH_PRUNE:
                        continue
                    stack.append(
                        (
                            idx,
                            part,
                            rest,
                            {**env, ins.out: outcome},
                            transcript + ((ins.out, outcome),),
                        )
                    )
            elif isinstance(ins, ConditionalPauli):
                if ins.condition not in env:
                    raise ExecutionError(
                        f"conditional pauli reads unset classical wire {ins.condition}"
                    )
                if env[ins.condition] == 1:
                    psi = _apply(psi, _positions(wires, (ins.wire,)), _PAULI[ins.pauli])
            elif isinstance(ins, DiscardBit):
                env = {k: v for k, v in env.items() if k != ins.wire}
            elif isinstance(ins, SendBit):
                pass  # classical routing only; no effect on the state
            else:  # pragma: no cover - union is closed
                raise TypeError(f"unknown instruction {ins!r}")
        if advancing:
            out.append((transcript, psi))
    return out


def _append_qubits(psi: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Tensor fresh qubits in state ``amps`` after the live ones."""
    grown = psi[..., None, :] * amps[:, None]
    return grown.reshape(psi.shape[:-1] + (2,) * (amps.size.bit_length() - 1) + psi.shape[-1:])


def _apply(
    psi: np.ndarray, positions: tuple[int, ...], u: np.ndarray, controlled: bool = False
) -> np.ndarray:
    """Apply ``u`` to the qubit axes ``positions`` (``positions[0]`` most
    significant).  If ``controlled``, ``positions[0]`` is a control and ``u``
    acts on the rest where it is |1>."""
    perm, inverse = _permutation(psi.ndim, positions)
    front = psi.transpose(perm).copy()
    block = front[1] if controlled else front
    block[...] = (u @ block.reshape(u.shape[0], -1)).reshape(block.shape)
    return front.transpose(inverse)


@functools.lru_cache(maxsize=None)
def _permutation(ndim: int, positions: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis order that brings ``positions`` to the front, in order, and
    its inverse."""
    perm = positions + tuple(a for a in range(ndim) if a not in positions)
    inverse = [0] * ndim
    for i, a in enumerate(perm):
        inverse[a] = i
    return perm, tuple(inverse)


def _positions(wires: list[WireRef], targets: tuple[WireRef, ...]) -> tuple[int, ...]:
    positions = []
    for t in targets:
        try:
            positions.append(wires.index(t))
        except ValueError:
            raise ExecutionError(f"instruction touches missing quantum wire {t}") from None
    return tuple(positions)


def run_branches(p: Program, input_state: StateVector) -> list[BranchOutcome]:
    """Every measurement branch of ``p`` on ``input_state``, sorted by bits.

    The input covers exactly the external wires, in declaration order.
    Branches below probability 1e-14 are omitted, and the rest sum to 1
    within 1e-12.
    """
    if input_state.n_qubits != p.n_external:
        raise ValueError(
            f"input has {input_state.n_qubits} qubits, program declares {p.n_external}"
        )
    amps = input_state.amplitudes
    norm2 = float(np.vdot(amps, amps).real)
    outcomes = []
    for transcript, k in kraus_branches(p):
        out = k @ amps
        prob = float(np.vdot(out, out).real) / norm2
        if prob >= BRANCH_PRUNE:
            outcomes.append(BranchOutcome(transcript, prob, StateVector(out / math.sqrt(prob))))
    return outcomes


def branch_density(outcomes: list[BranchOutcome]) -> np.ndarray:
    """Mixed output state of a branch ensemble: sum of p |phi><phi|."""
    dim = outcomes[0].final_state.amplitudes.size
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for o in outcomes:
        v = o.final_state.amplitudes
        rho += o.probability * np.outer(v, v.conj())
    return rho


def _choi_vectors(kraus: list[np.ndarray]) -> np.ndarray:
    """Columns vec(K_t)/sqrt(d): row-major, output index first, so that
    the Choi matrix is their sum of outer products."""
    d = kraus[0].shape[0]
    return np.stack([k.reshape(-1) for k in kraus], axis=1) / math.sqrt(d)


def channel_choi(p: Program) -> ChoiMatrix:
    """Dense Choi matrix of the channel ``p`` implements on its external wires.

    Refused, before anything is allocated, when running the program beside
    an n-qubit reference register would exceed :func:`qsim.max_qubits`:
    the matrix has 4^n entries.
    """
    n, width = p.n_external, _register_width(p)
    detail = f" ({width} for the program, {n} for the reference)"
    qsim.check_qubits(n + width, "dense Choi matrix", detail)
    v = _choi_vectors([k for _, k in kraus_branches(p)])
    return ChoiMatrix(v @ v.conj().T)


def kraus_choi_distance(kraus: list[np.ndarray], u: UnitaryMatrix) -> float:
    """Frobenius distance between the Choi matrix of the channel with Kraus
    operators ``kraus`` and that of ``u``, without forming either matrix.

    With V = [vec K_1 .. vec K_r, vec U]/sqrt(d) and S = diag(1, .., 1, -1)
    the difference is V S V†; for V = QR it has the norm of R S R†, an
    (r+1)×(r+1) matrix.  Unlike sqrt(pᵀGp - 2pᵀo + 1) from the Gram matrix,
    this does not cancel to ~1e-8 error when the channels agree.
    """
    if any(k.shape != u.matrix.shape for k in kraus):
        raise ValueError(f"Kraus operators do not match the dimension {u.dim} of the unitary")
    r = np.linalg.qr(_choi_vectors([*kraus, u.matrix]), mode="r")
    signs = np.ones(r.shape[1])
    signs[-1] = -1.0
    return float(np.linalg.norm((r * signs) @ r.conj().T))

