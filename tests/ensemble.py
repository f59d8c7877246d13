"""Test-side views of the package's execution path.

``run_branches`` normalizes the branches of ``executor.kraus_stack`` for
one input state, and ``branch_density`` mixes them, for comparing with
the deferred-measurement oracle; ``probe_states`` is the full probe
matrix of which ``verify_program`` builds only the Haar block; and
``basis``, ``haar_random_state`` and ``zero_state`` make input states,
plain complex128 amplitude arrays, which ``unit`` checks.

Not part of ``oracles.py``, which stays independent of the package's
execution path: this reads ``kraus_stack`` and the verifier's probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from telegate.executor import Transcript, kraus_stack
from telegate.protocol import Program
from telegate.qsim import BRANCH_PRUNE
from telegate.verifier import _haar_probes


@dataclass(frozen=True)
class Branch:
    """One classical history: the measured bits in program order, the exact
    probability of that history, and the final state of the external wires."""

    transcript: Transcript
    probability: float
    final_state: np.ndarray

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(bit for _, bit in self.transcript)


def run_branches(p: Program, amps: np.ndarray) -> list[Branch]:
    """Every measurement branch of ``p`` on the unit input ``amps``, sorted
    by bits: ``K_t @ psi`` for each Kraus operator, normalized.

    The input covers exactly the external wires, in declaration order.
    Branches below probability 1e-14 are omitted, and the rest sum to 1
    within 1e-12.
    """
    if amps.size != 1 << p.n_external:
        raise ValueError(f"input has {amps.size} amplitudes, program declares {p.n_external} qubits")
    unit(amps)
    norm2 = float(np.vdot(amps, amps).real)
    branches = []
    for transcript, k in zip(*kraus_stack(p)):
        out = k @ amps
        prob = float(np.vdot(out, out).real) / norm2
        if prob >= BRANCH_PRUNE:
            branches.append(Branch(transcript, prob, unit(out / math.sqrt(prob))))
    return branches


def branch_density(branches: list[Branch]) -> np.ndarray:
    """Mixed output state of a branch ensemble: sum of p |phi><phi|."""
    dim = branches[0].final_state.size
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for b in branches:
        v = b.final_state
        rho += b.probability * np.outer(v, v.conj())
    return rho


def probe_states(n_qubits: int, probes: int, seed: int) -> np.ndarray:
    """The d×m probe matrix of ``verify_program`` (d = 2^n_qubits, m =
    max(probes, d)), one probe per column: the computational basis in
    index order, then the m - d seeded Haar-random states it multiplies."""
    haar = _haar_probes(n_qubits, probes, seed)
    return np.concatenate([np.eye(haar.shape[0], dtype=np.complex128), haar], axis=1)


def unit(amps: np.ndarray) -> np.ndarray:
    """``amps``, once its entries are checked finite and its norm 1 within 1e-9."""
    assert np.isfinite(amps).all(), amps
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-9, np.linalg.norm(amps)
    return amps


def basis(bits: str) -> np.ndarray:
    """The computational basis state with bit label ``bits``, e.g. ``"10"`` = |10>."""
    return np.eye(1 << len(bits), dtype=np.complex128)[int(bits, 2)]


def haar_random_state(n_qubits: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Uniformly random pure state on ``n_qubits`` qubits."""
    g = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    v = g.normal(size=1 << n_qubits) + 1j * g.normal(size=1 << n_qubits)
    return unit(v / np.linalg.norm(v))


def zero_state(n_qubits: int) -> np.ndarray:
    """The all-|0> state on ``n_qubits`` qubits."""
    return basis("0" * n_qubits)
