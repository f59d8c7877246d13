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
one per transcript (see :func:`telegate.executor.kraus_stack`).

Reports are deterministic functions of (inputs, seed) and serialize to
a stable JSON document (see ``docs/report-schema.md``).
"""

from __future__ import annotations

import json

import numpy as np

from . import qsim
from ._record import Record
from .builder import NonlocalCUSpec, build_program, build_specification
from .executor import kraus_choi_distance, kraus_stack, transcript_key
from .protocol import Program, ResourceCensus, resource_census
from .qsim import BRANCH_PRUNE, UnitaryMatrix

DEFAULT_TOL_BRANCH = 1e-10
DEFAULT_TOL_CHOI = 1e-9
DEFAULT_PROBES = 16
DEFAULT_SEED = 0


class BranchReport(Record):
    """Worst-case evidence for one transcript across all probe inputs."""

    __slots__ = _fields = ("transcript", "probability", "max_infidelity")

    def __init__(self, transcript: str, probability: float, max_infidelity: float):
        Record.__init__(self, transcript, probability, max_infidelity)


class EquivalenceReport(Record):
    __slots__ = _fields = (
        "verdict", "tol_branch", "tol_choi", "census", "choi_dist", "branches"
    )

    def __init__(
        self,
        verdict: str,  # "pass" or "fail"
        tol_branch: float,
        tol_choi: float,
        census: ResourceCensus,
        choi_dist: float,
        branches: tuple[BranchReport, ...],
    ):
        Record.__init__(self, verdict, tol_branch, tol_choi, census, choi_dist, branches)

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
            "census": _census_fields(self.census),
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


def _census_fields(c: ResourceCensus) -> dict[str, int]:
    """The census under the names reports and ``telegate resources`` give it."""
    return {"ebits": c.ebits, "a_to_b": c.bits_alice_to_bob, "b_to_a": c.bits_bob_to_alice}


def _haar_probes(n_qubits: int, probes: int, seed: int) -> np.ndarray:
    """The d×(m - d) Haar-random probes (d = 2^n_qubits, m = max(probes,
    d)), one state per column; the other d probes are the computational
    basis, which :func:`verify_program` reads off the Kraus operators.

    The columns come from one ``default_rng(seed).normal(size=(m - d, 2,
    d))`` draw (real parts, then imaginary parts, probe by probe), each
    divided by its norm.  Every column is a valid state: finite, with
    norm 1 within 1e-9.  When m = d the block is empty and no generator
    is seeded.

    The probe index counts as a register of ceil(log2 m) qubits, which
    covers the n_qubits rows too (m >= d): it is refused, before anything
    is allocated, above :func:`qsim.max_qubits`, so the probe matrix
    would never be larger than a unitary at the cap.
    """
    d = 1 << n_qubits
    m = max(probes, d)
    qsim.check_qubits((m - 1).bit_length(), "probe matrix", f" to index its {m} columns")
    if m == d:
        return np.empty((d, 0), dtype=np.complex128)
    z = np.random.default_rng(seed).normal(size=(m - d, 2, d))
    haar = z[:, 0] + 1j * z[:, 1]
    haar /= np.linalg.norm(haar, axis=1, keepdims=True)
    if not np.isfinite(haar.view(np.float64)).all():
        raise ValueError("probe amplitudes must be finite")
    if np.abs(np.linalg.norm(haar, axis=1) - 1.0).max() > 1e-9:
        raise ValueError("probe states must be normalized")
    return np.ascontiguousarray(haar.T)


def _branch_evidence(
    out: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The evidence of every branch on every probe: (T, m) arrays of the
    probability p = |K_t ψ_j|^2, of ``seen`` = p >= 1e-14 and of the
    fidelity min(1, |<U ψ_j, K_t ψ_j>| / sqrt(p)), which is
    phase-insensitive and meaningful only where seen.

    ``out`` is the (T, d, m) array of unnormalized branch outputs K_t ψ_j
    (transcript, output index, probe) and ``targets`` the d×m array of
    the U ψ_j, which is divided by its column norms here.  For the
    computational basis these are the Kraus stack itself and U.  This is
    the one formula behind :func:`verify_program`'s branch evidence and
    the fidelity column of ``telegate trace``.
    """
    expected = targets / np.linalg.norm(targets, axis=0)
    prob = np.einsum("tij,tij->tj", out.conj(), out).real
    seen = prob >= BRANCH_PRUNE
    overlap = np.abs(np.einsum("ij,tij->tj", expected.conj(), out))
    return prob, seen, np.minimum(1.0, overlap / np.sqrt(np.where(seen, prob, 1.0)))


def check_specification(p: Program, u_spec: UnitaryMatrix) -> None:
    """Refuse a specification that does not act on exactly ``p``'s
    external wires."""
    n = p.n_external
    if u_spec.dim != 1 << n:
        raise ValueError(f"specification of dim {u_spec.dim} does not match {n} external wires")


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
    The basis probes need no product: their branch outputs are the
    columns of the Kraus operators and their targets the columns of
    ``u_spec``.  Only the Haar probes are drawn and multiplied, and none
    are when ``probes`` is at most the dimension.  The Choi distance
    compares the whole channels (:func:`kraus_choi_distance`).
    """
    check_specification(p, u_spec)
    haar = _haar_probes(p.n_external, probes, seed)
    transcripts, ops = kraus_stack(p)

    # Basis probe j's outputs are column j of K_t and of U.
    targets, out = u_spec.matrix, ops
    if haar.shape[1]:
        targets = np.concatenate([targets, targets @ haar], axis=1)
        out = np.concatenate([out, out @ haar], axis=2)
    prob, seen, fid = _branch_evidence(out, targets)
    infid = np.where(seen, 1.0 - fid, 0.0).max(axis=1)
    mass = np.where(seen, prob, 0.0).sum(axis=1) / out.shape[2]
    # kraus_stack lists transcripts in bit order over one wire list, which
    # is also the order of their keys: the report needs no sort.
    branches = tuple(
        BranchReport(transcript_key(transcript), float(mass[t]), float(infid[t]))
        for t, transcript in enumerate(transcripts)
        if seen[t].any()
    )
    dist = kraus_choi_distance(ops, u_spec)
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
