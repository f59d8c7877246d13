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
one per transcript, in the factored form of
:func:`telegate.executor.kraus_form`, which the specification joins
over one basis (:func:`_spec_form`); no dense operator is formed unless
the program has no slot or the specification does not split.

Reports are deterministic functions of (inputs, seed) and serialize to
a stable JSON document (see ``docs/report-schema.md``).
"""

from __future__ import annotations

import json
import threading

import numpy as np

from . import qsim
from ._record import Record
from .builder import NonlocalCUSpec, build_program, build_specification
from .executor import (
    BLOCK_CACHE_ENTRIES,
    LAYOUT_CACHE_SIZE,
    TRIVIAL_BASIS,
    KrausForm,
    choi_residual,
    dense,
    kraus_form,
    transcript_key,
)
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
    divided by its norm.  Every column is a valid state: its entries are
    normal deviates, far from overflow, so a column that is finite after
    the division (checked; a zero norm leaves NaNs) has norm 1 within
    rounding.  When m = d the block is empty and no generator is seeded.

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
    return np.ascontiguousarray(haar.T)


# The spec's coefficients over {A, B, I - A, V - B}: P0 = |0><0| on A,
# P1 = |1><1| on B (see _spec_form).
_CONTROL_HALVES = qsim._freeze(
    np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],
             dtype=np.complex128)
)

# For each coefficient array that kraus_form keeps in its cache (those
# are read-only), what _spec_form derives from it alone: the rows over
# {A, B, I - A, V - B} and their column pairs.  Keyed by the array's
# identity; an entry holds the array, so its id is not reused while the
# entry lives.  At most LAYOUT_CACHE_SIZE entries of at most
# BLOCK_CACHE_ENTRIES complex entries each, oldest out first.
_ROWS: dict[int, tuple] = {}
_ROWS_LOCK = threading.Lock()


def _spec_form(
    form: KrausForm, u_spec: UnitaryMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The specification S and the channel's K_t over one basis: their
    (1 + T, B, r, r) coefficients Z_u, S first; the column pairs of those
    (:func:`_column_pairs`); the (B, m, m) basis; and its column Grams, a
    (m, B, B) array whose [q, b, c] is <M_b e_q, M_c e_q>.

    If the program has a slot with gate V and one more external wire,
    and S = P0 ⊗ A + P1 ⊗ B (its off-diagonal blocks are exactly zero),
    the basis is {A, B, I - A, V - B}: S has coefficients (P0, P1, 0, 0)
    and K_t = X_t ⊗ I + Y_t ⊗ V has (X_t, Y_t, X_t, Y_t).  When the
    program implements S, X_t - a P0 and Y_t - a P1 are small and the
    rest multiplies I - A and V - B, which are then zero or small, so the
    residual of :func:`choi_residual` is a sum of small terms.  The rows
    depend on the coefficients alone, so they are kept with the
    coefficient arrays that :func:`kraus_form` caches.  Otherwise the
    basis is {1}, over the dense stack (:func:`dense`).
    """
    coeffs, basis = form.coeffs, form.basis
    s = u_spec.matrix
    m = basis.shape[-1]
    if len(basis) == 2 and coeffs.shape[-1] == 2 and not (
        np.count_nonzero(s[:m, m:]) or np.count_nonzero(s[m:, :m])
    ):
        entry = _ROWS.get(id(coeffs))
        if entry is not None and entry[0] is coeffs:
            _, z, pairs = entry
        else:
            z = np.empty((1 + len(coeffs), 4, 2, 2), dtype=np.complex128)
            z[0] = _CONTROL_HALVES
            z[1:, :2] = z[1:, 2:] = coeffs
            pairs = _column_pairs(z)
            if not coeffs.flags.writeable and z.size + pairs.size <= BLOCK_CACHE_ENTRIES:
                with _ROWS_LOCK:
                    if len(_ROWS) >= LAYOUT_CACHE_SIZE:
                        del _ROWS[next(iter(_ROWS))]  # the oldest
                    _ROWS[id(coeffs)] = (coeffs, qsim._freeze(z), qsim._freeze(pairs))
        four = np.empty((4, m, m), dtype=np.complex128)
        four[0], four[1] = s[:m, :m], s[m:, m:]
        np.subtract(basis, four[:2], out=four[2:])
        basis = four
    else:
        z = np.concatenate((s[None], dense(form)))[:, None]
        pairs = _column_pairs(z)
        basis = TRIVIAL_BASIS
    columns = basis.transpose(2, 1, 0)  # [q, x, b] = M_b[x, q]
    return z, pairs, basis, columns.conj().transpose(0, 2, 1) @ columns


def _column_pairs(z: np.ndarray) -> np.ndarray:
    """The (2, r, 1 + T, B^2) inner products of the columns of the
    coefficients Z_u: [0, r, u] holds <Z_ub e_r, Z_uc e_r> and [1, r, u]
    holds <Z_0b e_r, Z_uc e_r>, for every b, c."""
    u, b, r, _ = z.shape
    left = z.conj()
    pairs = np.stack((np.einsum("ubir,ucir->rubc", left, z), np.einsum("bir,ucir->rubc", left[0], z)))
    return pairs.reshape(2, r, u, b * b)


def _basis_terms(pairs: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """The (d, 2, 1 + T) terms of the images of every basis input e_j,
    j = r * m + q, under S and the K_t (the rows Z_u of
    :func:`_spec_form`): [j, 0, u] = |Z_u e_j|^2 and
    [j, 1, u] = <Z_0 e_j, Z_u e_j>, from the column pairs of the
    coefficients (column r) and the column Grams of the basis (column q)."""
    _, r, u, bb = pairs.shape
    m = len(grams)
    terms = pairs.reshape(-1, bb) @ grams.reshape(m, bb).T  # [(2, r, u), q]
    return terms.reshape(2, r, u, m).transpose(1, 3, 0, 2).reshape(r * m, 2, u)


def _probe_terms(z: np.ndarray, basis: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """:func:`_basis_terms` for the d×k matrix of ``probes``, one state per
    column.  A probe psi splits into r parts psi_i on the basis's wires;
    the basis is applied to each, and the images sum_bi Z_ub[:, i] ⊗
    M_b psi_i are assembled from those."""
    u, b, r, _ = z.shape
    m = basis.shape[-1]
    k = probes.shape[1]
    applied = (basis[:, None] @ probes.reshape(1, r, m, k)).reshape(b * r, m * k)
    images = (z.transpose(0, 2, 1, 3).reshape(u * r, b * r) @ applied).reshape(u, r * m, k)
    left = images.conj()
    terms = np.empty((k, 2, u), dtype=np.complex128)
    np.einsum("uij,uij->ju", left, images, out=terms[:, 0])
    np.einsum("ij,uij->ju", left[0], images, out=terms[:, 1])
    return terms


def _branch_evidence(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The evidence of every branch on every probe psi_j, from the (n, 2,
    1 + T) terms of its images U psi_j and K_t psi_j (see
    :func:`_basis_terms`): (T, n) arrays of the probability
    p = |K_t psi_j|^2, of ``seen`` = p >= 1e-14 and of the fidelity
    min(1, |<U psi_j, K_t psi_j>| / (|U psi_j| sqrt(p))), which is
    phase-insensitive and meaningful only where seen.  This is the one
    formula behind :func:`verify_program`'s branch evidence and the
    fidelity column of ``telegate trace``."""
    prob = terms[:, 0, 1:].T.real
    seen = prob >= BRANCH_PRUNE
    norm2 = terms[:, 0, 0].real * np.where(seen, prob, 1.0)
    return prob, seen, np.minimum(1.0, np.abs(terms[:, 1, 1:].T) / np.sqrt(norm2))


def basis_evidence(
    form: KrausForm, u_spec: UnitaryMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (T, d) probabilities, ``seen`` and fidelities of every branch of
    ``form`` on every basis input, against ``u_spec``: what
    :func:`verify_program` computes for its basis probes."""
    _, pairs, _, grams = _spec_form(form, u_spec)
    return _branch_evidence(_basis_terms(pairs, grams))


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
    Everything is read off the factored Kraus operators
    (:func:`telegate.executor.kraus_form`), written with ``u_spec`` over
    one basis (:func:`_spec_form`): the basis probes from the column
    Grams of the basis, the Haar probes from the basis applied to their
    halves, none of which are drawn when ``probes`` is at most the
    dimension, and the Choi distance, which compares the whole channels,
    from the basis's metric (:func:`choi_residual`).
    """
    check_specification(p, u_spec)
    haar = _haar_probes(p.n_external, probes, seed)
    form = kraus_form(p)
    z, pairs, basis, grams = _spec_form(form, u_spec)
    terms = on_basis = _basis_terms(pairs, grams)
    if haar.shape[1]:
        terms = np.concatenate((on_basis, _probe_terms(z, basis, haar)))
    prob, seen, fid = _branch_evidence(terms)
    infid = np.where(seen, 1.0 - fid, 0.0).max(axis=1).tolist()
    mass = (np.where(seen, prob, 0.0).sum(axis=1) / prob.shape[1]).tolist()
    # kraus_form lists transcripts in bit order over one wire list, which
    # is also the order of their keys: the report needs no sort.
    branches = tuple(
        BranchReport(transcript_key(transcript), mass[t], infid[t])
        for t, (transcript, hit) in enumerate(zip(form.transcripts, seen.any(axis=1).tolist()))
        if hit
    )
    # Summed over the basis inputs, the overlaps are the <S, Z_u>.
    dist = choi_residual(z, basis, grams.sum(axis=0), on_basis[:, 1].sum(axis=0))
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
