"""Independent reference implementations used as test oracles.

Nothing here reuses the package's execution or Choi machinery: gates are
embedded by explicit index arithmetic (not axis moves), measurements are
deferred to a final partial trace (not branched), and Choi matrices are
assembled from the definition sum (not the vectorization shortcut).
Shared with the package are only the instruction dataclasses themselves,
which are the input format under test, and the gate admission tolerance
``qsim._UNITARY_ATOL``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from telegate.protocol import (
    AllocQubit,
    ApplyControlledLocal,
    ApplyLocal,
    ConditionalPauli,
    DiscardBit,
    MakeBellPair,
    MeasureZ,
    Program,
    SendBit,
)
from telegate.qsim import _UNITARY_ATOL

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def embed(u: np.ndarray, positions: list[int], n: int) -> np.ndarray:
    """Expand a k-qubit operator to n qubits by index arithmetic.

    positions[0] is the most significant index of u's basis; qubit q
    occupies bit (n-1-q) of a basis index.
    """
    k = len(positions)
    assert u.shape == (1 << k, 1 << k)
    rest = [q for q in range(n) if q not in positions]
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for rest_bits in range(1 << len(rest)):
        base = 0
        for slot, q in enumerate(rest):
            if (rest_bits >> (len(rest) - 1 - slot)) & 1:
                base |= 1 << (n - 1 - q)
        idx = []
        for sub in range(1 << k):
            i = base
            for slot, q in enumerate(positions):
                if (sub >> (k - 1 - slot)) & 1:
                    i |= 1 << (n - 1 - q)
            idx.append(i)
        full[np.ix_(idx, idx)] = u
    return full


def controlled_block(u: np.ndarray) -> np.ndarray:
    d = u.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = u
    return out


def deferred_measurement_density(p: Program, input_amps: np.ndarray) -> np.ndarray:
    """Output density matrix over the external wires, computed by unitary
    dilation: measurements keep their qubit as a classical carrier,
    conditionals become controlled gates, and everything internal is
    traced out at the end."""
    m = _dilate(p, np.asarray(input_amps, dtype=complex).reshape(-1, 1))[0]
    return m @ m.conj().T


def deferred_measurement_choi(p: Program) -> np.ndarray:
    """Trace-1 Choi matrix of the program channel from the definition sum
    J = (1/d) sum_ij Phi(|i><j|) (x) |i><j|, system factor first, where
    Phi(|i><j|) = Tr_internal(V|i><j|V†) for the dilation V run on every
    basis input."""
    d = 1 << p.n_external
    outs = _dilate(p, np.eye(d, dtype=complex))
    j = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            ref_part = np.zeros((d, d), dtype=complex)
            ref_part[i, k] = 1.0
            j += np.kron(outs[i] @ outs[k].conj().T, ref_part)
    return j / d


def deferred_measurement_kraus(p: Program) -> list[tuple[tuple, np.ndarray]]:
    """``(transcript, K_t)`` pairs read off the dilation run on every basis
    input: column j of K_t is the part of input j's final state in which
    each measured qubit holds its bit in t.  Transcripts are built one at
    a time, in bit order; those with |K_t|_F^2 < 1e-14 are left out.
    Every internal qubit must be measured, as in a valid program."""
    d = 1 << p.n_external
    outs = _dilate(p, np.eye(d, dtype=complex))
    internal: list = []
    measured: list[MeasureZ] = []
    for ins in p.instructions:
        if isinstance(ins, AllocQubit):
            internal.append(ins.wire)
        elif isinstance(ins, MakeBellPair):
            internal += [ins.left, ins.right]
        elif isinstance(ins, MeasureZ):
            measured.append(ins)
    pairs = []
    for bits in itertools.product((0, 1), repeat=len(measured)):
        col = 0
        for ins, bit in zip(measured, bits):
            col |= bit << (len(internal) - 1 - internal.index(ins.wire))
        k = np.stack([out[:, col] for out in outs], axis=1)
        if np.vdot(k, k).real >= 1e-14:
            pairs.append((tuple((ins.out, bit) for ins, bit in zip(measured, bits)), k))
    return pairs


def _dilate(p: Program, inputs: np.ndarray) -> list[np.ndarray]:
    """Run the dilation on each column of ``inputs``; for each, return the
    final pure state as a (2^n_external, rest) matrix, externals first."""
    wires = list(p.external_wires)
    psi = inputs.copy()
    carrier = {}

    def grow(extra: np.ndarray) -> None:
        nonlocal psi
        psi = np.kron(psi, extra.reshape(-1, 1))

    for ins in p.instructions:
        n = len(wires)
        if isinstance(ins, AllocQubit):
            vec = np.zeros(2, dtype=complex)
            vec[ins.basis_value] = 1.0
            grow(vec)
            wires.append(ins.wire)
        elif isinstance(ins, MakeBellPair):
            grow(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
            wires.append(ins.left)
            wires.append(ins.right)
        elif isinstance(ins, ApplyLocal):
            psi = embed(np.asarray(ins.gate.matrix), [wires.index(w) for w in ins.wires], n) @ psi
        elif isinstance(ins, ApplyControlledLocal):
            positions = [wires.index(ins.control)] + [wires.index(w) for w in ins.targets]
            psi = embed(controlled_block(np.asarray(ins.gate.matrix)), positions, n) @ psi
        elif isinstance(ins, MeasureZ):
            carrier[ins.out] = ins.wire  # deferred: the qubit stays as the bit
        elif isinstance(ins, ConditionalPauli):
            positions = [wires.index(carrier[ins.condition]), wires.index(ins.wire)]
            psi = embed(controlled_block(_PAULI[ins.pauli]), positions, n) @ psi
        elif isinstance(ins, (SendBit, DiscardBit)):
            pass
        else:
            raise TypeError(f"unknown instruction {ins!r}")

    d_ext = 1 << p.n_external
    # externals are always the leading qubits
    return [psi[:, c].reshape(d_ext, -1) for c in range(psi.shape[1])]


def choi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Trace-1 Choi matrix from the definition sum
    J = (1/d) sum_ij (U|i><j|U†) (x) |i><j|, system factor first."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    j = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            sys_part = np.outer(u[:, i], u[:, k].conj())
            ref_part = np.zeros((d, d), dtype=complex)
            ref_part[i, k] = 1.0
            j += np.kron(sys_part, ref_part)
    return j / d


def operator_schmidt_rank(u: np.ndarray) -> int:
    """The operator Schmidt rank of ``u`` across the cut between its first
    qubit (the control) and the rest (the targets), of dimension m: the
    number of nonzero singular values of the realigned (4, m^2) matrix
    R[(a, b), (x, y)] = u[(a, x), (b, y)] (Nielsen et al., PRA 67, 052301).
    A controlled gate P0 ⊗ I + P1 ⊗ V has rank 2 unless V ∝ I, and rank 1
    then.

    A singular value counts as zero up to d * ``qsim._UNITARY_ATOL``
    (d = len(u)).  The gate language admits a gate up to that tolerance
    entrywise, and an entrywise error of that size has Frobenius norm at
    most d times it; realigning only permutes the entries, so such an
    error moves no singular value of R by more than that.
    """
    d = len(u)
    m = d // 2
    realigned = np.asarray(u).reshape(2, m, 2, m).transpose(0, 2, 1, 3).reshape(4, m * m)
    return int((np.linalg.svd(realigned, compute_uv=False) > d * _UNITARY_ATOL).sum())


def controlled_signals(c: np.ndarray) -> bool:
    """Whether the controlled gate ``c`` = P0 ⊗ I + P1 ⊗ U (control first)
    signals, that is whether U is not a multiple of I.  Then it signals
    both ways across the control|targets cut: the control's holder
    signals through U on a state that U does not fix up to phase, and the
    targets' holder signals back by phase kickback from eigenstates of U
    of different eigenvalues (Beckman, Gottesman, Nielsen & Preskill,
    PRA 64, 052309), so any two-party protocol for it sends a bit each
    way.

    U counts as a multiple of I when its Frobenius distance from its
    projection tr(U) I / m on I (m = d / 2) is at most
    d * ``qsim._UNITARY_ATOL`` (d = len(c)), the threshold of
    :func:`operator_schmidt_rank`: the gate language admits a gate up to
    that tolerance entrywise, an error of that size has Frobenius norm at
    most d times it, and the distance moves by no more than that norm.
    """
    d = len(c)
    m = d // 2
    u = np.asarray(c)[m:, m:]
    return bool(np.linalg.norm(u - np.trace(u) / m * np.eye(m)) > d * _UNITARY_ATOL)


# --- random gate-expression corpus -------------------------------------------


def random_gate_expr(rng: np.random.Generator, depth: int = 3):
    """Random AST for round-trip testing of the gate-expression language.
    Shapes are unconstrained, so products may mix dimensions; use
    :func:`random_unitary_expr` when the tree must also evaluate."""
    from telegate import gatelang

    leaf_kinds = ("named", "param", "matrix")
    kind = rng.choice(("product", "tensor", "adjoint") + leaf_kinds) if depth > 0 else rng.choice(leaf_kinds)
    if kind == "product":
        return gatelang.Product(
            random_gate_expr(rng, depth - 1), random_gate_expr(rng, depth - 1)
        )
    if kind == "tensor":
        return gatelang.Tensor(
            random_gate_expr(rng, depth - 1), random_gate_expr(rng, depth - 1)
        )
    if kind == "adjoint":
        return gatelang.Adjoint(random_gate_expr(rng, depth - 1))
    return _random_leaf(rng, kind)


def _random_leaf(rng: np.random.Generator, kind: str):
    from telegate import gatelang, qsim

    if kind == "named":
        return gatelang.NamedGate(str(rng.choice(gatelang.NAMED_GATES)))
    if kind == "param":
        return gatelang.ParamGate(
            str(rng.choice(gatelang.PARAM_GATES)), float(rng.uniform(-7.0, 7.0))
        )
    u = qsim.haar_random_unitary(2, rng)
    rows = tuple(tuple(complex(z) for z in row) for row in u.matrix)
    return gatelang.MatrixLiteral(rows)


def random_unitary_expr(rng: np.random.Generator, depth: int = 3, n_qubits: int = 1):
    """Random AST constrained so every subexpression evaluates: products
    only join equal dimensions, tensors split the qubit count."""
    from telegate import gatelang

    if depth == 0 or (n_qubits == 1 and rng.random() < 0.3):
        if n_qubits > 1:
            return gatelang.Tensor(
                random_unitary_expr(rng, 0, 1), random_unitary_expr(rng, 0, n_qubits - 1)
            )
        return _random_leaf(rng, str(rng.choice(("named", "param", "matrix"))))
    kinds = ["product", "adjoint"]
    if n_qubits > 1:
        kinds.append("tensor")
    kind = str(rng.choice(kinds))
    if kind == "product":
        return gatelang.Product(
            random_unitary_expr(rng, depth - 1, n_qubits),
            random_unitary_expr(rng, depth - 1, n_qubits),
        )
    if kind == "adjoint":
        return gatelang.Adjoint(random_unitary_expr(rng, depth - 1, n_qubits))
    split = int(rng.integers(1, n_qubits))
    return gatelang.Tensor(
        random_unitary_expr(rng, depth - 1, split),
        random_unitary_expr(rng, depth - 1, n_qubits - split),
    )


# --- random valid programs ----------------------------------------------------

_ONE_QUBIT_GATES = ("X", "Z", "H", "S", "T", "RY(0.7)", "RX(-1.9)")
_TWO_QUBIT_GATES = ("H x S", "X x X", "RZ(0.4) x H")


def random_program_text(rng: np.random.Generator, max_internal: int = 5, steps: int = 24) -> str:
    """A random program in the text format that passes locality
    validation: one or two externals, then basis-state allocs, Bell pairs,
    local and controlled gates, measz, send, cpauli and discard, and a
    measz for every internal qubit still alive at the end.  A qubit
    measured right after its alloc gives a deterministic bit, so some
    transcripts cannot happen."""
    owner: dict[str, str] = {}  # alive quantum wire -> party
    lines = []
    for q in range(int(rng.integers(1, 3))):
        party = str(rng.choice(["A", "B"]))
        owner[f"q{q}"] = party
        lines.append(f"ext {party} q{q}")
    external = set(owner)
    readers: dict[str, set[str]] = {}  # written, undiscarded bit -> parties
    counters = {"q": len(owner), "c": 1, "internal": 0}

    def fresh(kind: str) -> str:
        counters[kind] += 1
        return f"{kind}{counters[kind] - 1}"

    def measure(party: str, wire: str) -> None:
        del owner[wire]
        bit = fresh("c")
        readers[bit] = {party}
        lines.append(f"measz {party} {wire} -> {bit}")

    kinds = ("alloc", "bell", "gate", "cgate", "measz", "send", "cpauli", "discard")
    weights = (0.12, 0.12, 0.16, 0.12, 0.12, 0.13, 0.18, 0.05)
    for _ in range(int(rng.integers(1, steps + 1))):
        kind = str(rng.choice(kinds, p=weights))
        party, other = ("A", "B") if rng.random() < 0.5 else ("B", "A")
        mine = [w for w, p in owner.items() if p == party]
        bits = [c for c, r in readers.items() if party in r]
        if kind == "alloc" and counters["internal"] < max_internal:
            counters["internal"] += 1
            wire = fresh("q")
            owner[wire] = party
            lines.append(f"alloc {party} {wire} = {rng.integers(2)}")
        elif kind == "bell" and counters["internal"] + 2 <= max_internal:
            counters["internal"] += 2
            left, right = fresh("q"), fresh("q")
            owner[left], owner[right] = "A", "B"
            lines.append(f"bell {left}@A {right}@B")
        elif kind == "gate" and len(mine) >= 2 and rng.random() < 0.3:
            a, b = rng.choice(mine, 2, replace=False)
            lines.append(f"gate {party} {a} {b} : {rng.choice(_TWO_QUBIT_GATES)}")
        elif kind == "gate" and mine:
            lines.append(f"gate {party} {rng.choice(mine)} : {rng.choice(_ONE_QUBIT_GATES)}")
        elif kind == "cgate" and len(mine) >= 2:
            control, target = rng.choice(mine, 2, replace=False)
            lines.append(f"cgate {party} {control} -> {target} : {rng.choice(_ONE_QUBIT_GATES)}")
        elif kind == "measz" and set(mine) - external:
            measure(party, str(rng.choice(sorted(set(mine) - external))))
        elif kind == "send" and bits:
            bit = str(rng.choice(bits))
            readers[bit].add(other)
            lines.append(f"send {party}->{other} {bit}")
        elif kind == "cpauli" and mine and bits:
            lines.append(f"cpauli {party} {rng.choice(mine)} {rng.choice(['X', 'Z'])} if {rng.choice(bits)}")
        elif kind == "discard" and readers:
            bit = str(rng.choice(sorted(readers)))
            del readers[bit]
            lines.append(f"discard {bit}")
    for wire in sorted(set(owner) - external):
        measure(owner[wire], wire)
    return "\n".join(lines) + "\n"
