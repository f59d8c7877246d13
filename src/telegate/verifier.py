"""Numerical certification that a program implements its specification.

Two independent kinds of evidence go into a verdict:

* per-branch fidelity: every measurement branch's output is compared
  against the specification unitary applied to the same probe input,
  over the full computational basis plus seeded Haar-random probes --
  failures localize to a transcript;
* Choi distance: the Frobenius distance between the Choi matrices of
  the program channel and the specification channel -- the actual
  channel-equality claim.

Both come from one execution of the program: its Kraus operators K_t,
one per transcript (see :func:`telegate.executor.kraus_branches`).

Reports are deterministic functions of (inputs, seed) and serialize to
a stable JSON document (see ``docs/report-schema.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import qsim
from .builder import NonlocalCUSpec, build_program, build_specification
from .executor import kraus_branches, kraus_choi_distance, transcript_key
from .protocol import Program, ResourceCensus, resource_census
from .qsim import BRANCH_PRUNE, StateVector, UnitaryMatrix

DEFAULT_TOL_BRANCH = 1e-10
DEFAULT_TOL_CHOI = 1e-9
DEFAULT_PROBES = 16
DEFAULT_SEED = 0


@dataclass(frozen=True)
class BranchReport:
    """Worst-case evidence for one transcript across all probe inputs."""

    transcript: str
    probability: float
    max_infidelity: float


@dataclass(frozen=True)
class EquivalenceReport:
    verdict: str  # "pass" or "fail"
    tol_branch: float
    tol_choi: float
    census: ResourceCensus
    choi_dist: float
    branches: tuple[BranchReport, ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def max_infidelity(self) -> float:
        return max((b.max_infidelity for b in self.branches), default=0.0)

    def to_json(self) -> str:
        """Canonical JSON form; byte-identical for identical inputs and seed."""
        doc = {
            "verdict": self.verdict,
            "tolerances": {"branch": self.tol_branch, "choi": self.tol_choi},
            "census": {
                "ebits": self.census.ebits,
                "a_to_b": self.census.bits_alice_to_bob,
                "b_to_a": self.census.bits_bob_to_alice,
            },
            "choi_distance": self.choi_dist,
            "branches": [
                {
                    "transcript": b.transcript,
                    "probability": b.probability,
                    "max_infidelity": b.max_infidelity,
                }
                for b in self.branches
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def probe_states(n_qubits: int, probes: int, seed: int) -> list[StateVector]:
    """The full computational basis, padded with seeded Haar-random states
    up to ``probes`` total (never fewer than the basis)."""
    basis = [
        StateVector.from_bits(format(i, f"0{n_qubits}b")) for i in range(1 << n_qubits)
    ]
    rng = np.random.default_rng(seed)
    extra = [qsim.haar_random_state(n_qubits, rng) for _ in range(max(0, probes - len(basis)))]
    return basis + extra


def verify_program(
    p: Program,
    u_spec: UnitaryMatrix,
    tol_branch: float = DEFAULT_TOL_BRANCH,
    tol_choi: float = DEFAULT_TOL_CHOI,
    probes: int = DEFAULT_PROBES,
    seed: int = DEFAULT_SEED,
) -> EquivalenceReport:
    """Certify an arbitrary program against a specification unitary.

    For every probe input, every branch output is compared with
    ``u_spec`` applied to that input; branch evidence is aggregated per
    transcript (probability averaged over probes, infidelity maximized),
    skipping probes that reach a transcript with probability below 1e-14.
    The Choi distance compares the whole channels.
    """
    n = p.n_external
    if u_spec.dim != 1 << n:
        raise ValueError(
            f"specification of dim {u_spec.dim} does not match {n} external wires"
        )
    inputs = probe_states(n, probes, seed)
    kraus = kraus_branches(p)

    probe_matrix = np.stack([s.amplitudes for s in inputs], axis=1)
    expected = u_spec.matrix @ probe_matrix
    expected /= np.linalg.norm(expected, axis=0)
    branches = []
    for transcript, k in kraus:
        out = k @ probe_matrix
        prob = np.einsum("ij,ij->j", out.conj(), out).real
        seen = prob >= BRANCH_PRUNE
        if not seen.any():
            continue
        overlap = np.abs(np.einsum("ij,ij->j", expected[:, seen].conj(), out[:, seen]))
        infid = 1.0 - np.minimum(1.0, overlap / np.sqrt(prob[seen]))
        branches.append(
            BranchReport(
                transcript_key(transcript),
                sum(prob[seen].tolist()) / len(inputs),
                max(0.0, float(infid.max())),
            )
        )
    branches = tuple(sorted(branches, key=lambda b: b.transcript))
    dist = kraus_choi_distance([k for _, k in kraus], u_spec)
    max_infid = max((b.max_infidelity for b in branches), default=0.0)
    verdict = "pass" if (max_infid <= tol_branch and dist <= tol_choi) else "fail"
    return EquivalenceReport(
        verdict, tol_branch, tol_choi, resource_census(p), dist, branches
    )


def verify(
    spec: NonlocalCUSpec,
    tol_branch: float = DEFAULT_TOL_BRANCH,
    tol_choi: float = DEFAULT_TOL_CHOI,
    probes: int = DEFAULT_PROBES,
    seed: int = DEFAULT_SEED,
) -> EquivalenceReport:
    """Build the program and specification for ``spec`` and certify them
    against each other."""
    return verify_program(
        build_program(spec), build_specification(spec), tol_branch, tol_choi, probes, seed
    )
