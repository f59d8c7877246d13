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
:func:`telegate.executor.kraus_form`.  One function, :func:`_evidence`,
reads both off that form for :func:`verify_program` and for ``telegate
trace`` (through :func:`basis_evidence`), so the two agree bit for bit.
It writes the specification S and the K_t over one basis on the last
wires and evaluates them there; its one choice, :func:`_splits`, is
which basis:

* the program's own {I, V} (V the slot's gate) when the program has a
  slot with gate V and one external wire besides its targets (r = 2),
  and S is exactly controlled(V) with that wire as control, at every
  size: S = P0 ⊗ I + P1 ⊗ V then has the constant coefficients
  (P0, P1), without a d×d operator, and the rows of coefficients and
  their pair products, which do not depend on V, come with the form
  from the executor's cache, so a warm call computes only what V
  changes;
* the trivial basis {1} otherwise, with the rows [S; K_t] themselves:
  for a program without a slot, a slot with r ≠ 2, and a specification
  of any other form.

A spec that :func:`qsim.controlled` built from the slot's own gate, as
``build_specification`` does for the program ``build_program`` makes
from the same spec, is controlled(V) by construction and is taken on
that record without reading S; any other is compared entry for entry,
with the same answer.  On either basis the images of the probes go
through the basis, and the Choi distance is :func:`choi_residual` over
it.

Reports are deterministic functions of (inputs, seed) and serialize to
a stable JSON document (see ``docs/report-schema.md``), which
:meth:`EquivalenceReport.to_json` writes field by field.
"""

from __future__ import annotations

import json
import json.encoder

import numpy as np

from . import qsim
from ._record import Record
from .builder import NonlocalCUSpec, build_program, build_specification
from .executor import (
    TRIVIAL_BASIS,
    TRIVIAL_GRAMS,
    TRIVIAL_METRIC,
    KrausForm,
    choi_residual,
    column_pairs,
    dense,
    kraus_form,
    transcript_key,
)
from .protocol import Program, ResourceCensus
from .qsim import BRANCH_PRUNE, UnitaryMatrix

DEFAULT_TOL_BRANCH = 1e-10
DEFAULT_TOL_CHOI = 1e-9
DEFAULT_PROBES = 16
DEFAULT_SEED = 0

# How json.dumps writes a string (ensure_ascii, its default).
_encode_string = json.encoder.encode_basestring_ascii


class BranchReport(Record):
    """Worst-case evidence for one transcript across all probe inputs."""

    __slots__ = _fields = ("transcript", "probability", "max_infidelity")

    def __init__(self, transcript: str, probability: float, max_infidelity: float):
        Record.__init__(self, transcript, probability, max_infidelity)

    def __hash__(self) -> int:  # computed when asked for, not at construction
        return hash(self._key)


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

    def __hash__(self) -> int:  # computed when asked for, not at construction
        return hash(self._key)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def max_infidelity(self) -> float:
        return max((b.max_infidelity for b in self.branches), default=0.0)

    def to_json(self) -> str:
        """Canonical JSON form; byte-identical for identical inputs and
        seed from one version under one BLAS configuration (the thread
        count moves last bits, see ``docs/report-schema.md``).

        Exactly ``json.dumps(doc, sort_keys=True, separators=(", ", ": "))``
        of the document in ``docs/report-schema.md``, written field by
        field in that key order (see :func:`_json`)."""
        c = self.census
        branches = ", ".join([
            f'{{"max_infidelity": {_json(b.max_infidelity)}, '
            f'"probability": {_json(b.probability)}, "transcript": {_json(b.transcript)}}}'
            for b in self.branches
        ])
        return (
            f'{{"branches": [{branches}], "census": {{"a_to_b": {_json(c.bits_alice_to_bob)}, '
            f'"b_to_a": {_json(c.bits_bob_to_alice)}, "ebits": {_json(c.ebits)}}}, '
            f'"choi_distance": {_json(self.choi_dist)}, "tolerances": {{"branch": '
            f'{_json(self.tol_branch)}, "choi": {_json(self.tol_choi)}}}, '
            f'"verdict": {_json(self.verdict)}}}'
        )


def _json(value: object) -> str:
    """``value`` as ``json.dumps`` writes it inside a report: a finite
    float or an int by its repr, a string escaped to ASCII, and anything
    else (non-finite floats, float and int subclasses, other types)
    through ``json.dumps`` itself."""
    cls = value.__class__
    if cls is float and value - value == 0.0 or cls is int:
        return repr(value)
    if cls is str:
        return _encode_string(value)
    return json.dumps(value, sort_keys=True, separators=(", ", ": "))


def _census_fields(c: ResourceCensus) -> dict[str, int]:
    """The census under the names reports and ``telegate resources`` give it."""
    return {"ebits": c.ebits, "a_to_b": c.bits_alice_to_bob, "b_to_a": c.bits_bob_to_alice}


def _haar_probes(n_qubits: int, probes: int, seed: int) -> np.ndarray:
    """The d×(m - d) Haar-random probes (d = 2^n_qubits, m = max(probes,
    d)), one state per column; the other d probes are the computational
    basis, which :func:`verify_program` reads off the Kraus operators.

    The columns come from one ``default_rng(seed).normal(size=(m - d, 2,
    d))`` draw (real parts, then imaginary parts, probe by probe), each
    divided by its norm, and are copied once into a C-contiguous array
    viewed as complex.  Every column is a valid state: its entries are
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
    draw = np.random.default_rng(seed).normal(size=(m - d, 2, d))
    draw /= np.sqrt(np.einsum("jri,jri->j", draw, draw))[:, None, None]
    if not np.isfinite(draw).all():
        raise ValueError("probe amplitudes must be finite")
    haar = np.empty((d, m - d, 2))
    haar[...] = draw.transpose(2, 0, 1)
    return haar.view(np.complex128).reshape(d, m - d)


def _splits(form: KrausForm, spec: UnitaryMatrix) -> bool:
    """Whether the spec ``spec`` is exactly controlled(V) over the channel
    ``form``'s own basis {I, V}: the program has a slot with gate V and
    one more external wire (r = 2), so that the form carries the rows and
    pairs that :func:`_evidence` reads over that basis, and
    S = P0 ⊗ I + P1 ⊗ V entry for entry (its off-diagonal blocks zero, its
    diagonal blocks the basis).  This is the verifier's one choice:
    :func:`_evidence` works over {I, V} when it holds and over {1}
    otherwise.

    A spec that :func:`qsim.controlled` built from the slot's own gate
    records that gate's matrix (``spec._controls is form.v``) and is
    controlled(V) by construction, so it is taken without reading S: a
    built program's spec from ``build_specification`` is one.  Any other
    spec, an equal copy included, is compared entry for entry, which
    gives the same answer."""
    if form.rows is None:
        return False
    if spec._controls is form.v:
        return True
    basis = form.basis
    s, m = spec.matrix, basis.shape[-1]
    return (
        not (s[:m, m:].any() or s[m:, :m].any())
        and (s[:m, :m] == basis[0]).all() and (s[m:, m:] == basis[1]).all()
    )


def _evidence(
    form: KrausForm, u_spec: UnitaryMatrix, probes: np.ndarray
) -> tuple[np.ndarray, float]:
    """The terms of the images of every probe under the specification S
    and the K_t of ``form``, and the Choi distance between the two
    channels, over the basis that :func:`_splits` picks.

    The terms are a (2, 1 + T, d + k) array over the d basis inputs e_j,
    then the k columns psi_j of the d×k ``probes``, with rows Z_0 = S and
    Z_1+t = K_t: [0, u, j] = |Z_u psi_j|^2 and
    [1, u, j] = <Z_0 psi_j, Z_u psi_j>.  Summed over the basis inputs,
    the overlaps are the <S, Z_u> that :func:`choi_residual` reads.

    Every Z_u is written over a basis {M_b} on the last wires as
    Z_u = sum_b z_ub ⊗ M_b.  When S splits, that is the channel's own
    {I, V}, V the slot's gate, where S = controlled(V) has the
    coefficients (P0, P1) and K_t = X_t ⊗ I + Y_t ⊗ V has (X_t, Y_t); no
    block of S is read, and the rows z = [P0, P1; X_t, Y_t], their column
    pairs and the basis's column Grams and metric come with the form
    (``form.rows``, ``form.pairs``, ``form.grams`` and ``form.metric``, see
    :func:`telegate.executor._operands`), so a warm call computes only
    what V changes.  Otherwise it is {1}, with rows [S; K_t] and their
    :func:`column_pairs` computed here: the squared norms and overlaps of
    their columns.

    On a basis input e = e_i ⊗ e_q, with G_q[b, c] = <M_b e_q, M_c e_q>
    the column Grams of the basis (their sum is its metric), both terms
    are one product of the pairs with the G_q:
    |Z_u e|^2 = sum_bc <z_ub e_i, z_uc e_i> G_q[b, c] and
    <S e, Z_u e> = sum_bc <z_0b e_i, z_uc e_i> G_q[b, c].  A probe psi
    splits into r parts psi_i on the basis's wires, the basis is applied
    to each, and its images sum_bi z_ub[:, i] ⊗ M_b psi_i are assembled
    from those.  The Choi distance is :func:`choi_residual` over the
    basis.
    """
    d, k = probes.shape
    if _splits(form, u_spec):
        rows, pairs = form.rows, form.pairs
        basis, grams, metric = form.basis, form.grams, form.metric
    else:
        rows = np.empty((1 + len(form.coeffs), 1, d, d), dtype=np.complex128)
        rows[0, 0] = u_spec.matrix
        rows[1:, 0] = dense(form)
        pairs = column_pairs(rows)
        basis, grams, metric = TRIVIAL_BASIS, TRIVIAL_GRAMS, TRIVIAL_METRIC
    u, b, r, _ = rows.shape
    m = len(grams)
    # [0, u, i, q] = |Z_u e|^2 and [1, u, i, q] = <S e, Z_u e> on e = e_i ⊗ e_q
    terms = (pairs.reshape(-1, b * b) @ grams.reshape(m, b * b).T).reshape(2, u, d)
    if k:
        applied = (basis[:, None] @ probes.reshape(1, r, m, k)).reshape(b * r, m * k)
        images = (rows.transpose(0, 2, 1, 3).reshape(u * r, b * r) @ applied).reshape(u, 1, d, k)
        terms = np.concatenate((terms, column_pairs(images).reshape(2, u, k)), axis=2)
    onto = terms[1, :, :d].sum(axis=1)
    return terms, choi_residual(rows, basis, metric, onto)


def _branch_evidence(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The evidence of every branch on every probe psi_j, from the (2,
    1 + T, n) terms of its images U psi_j and K_t psi_j (see
    :func:`_evidence`): (T, n) arrays of the probability p = |K_t psi_j|^2,
    of ``seen`` = p >= 1e-14 and of the fidelity
    min(1, |<U psi_j, K_t psi_j>| / (|U psi_j| sqrt(p))), which is
    phase-insensitive and meaningful only where seen.  This is the one
    formula behind :func:`verify_program`'s branch evidence and the
    fidelity column of ``telegate trace``."""
    prob = terms[0, 1:].real
    seen = prob >= BRANCH_PRUNE
    norm2 = terms[0, 0].real * np.where(seen, prob, 1.0)
    return prob, seen, np.minimum(1.0, np.abs(terms[1, 1:]) / np.sqrt(norm2))


def basis_evidence(
    form: KrausForm, u_spec: UnitaryMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (T, d) probabilities, ``seen`` and fidelities of every branch of
    ``form`` on every basis input, against ``u_spec``: what
    :func:`verify_program` computes for its basis probes, over the same
    basis."""
    no_probes = np.empty((u_spec.dim, 0), dtype=np.complex128)
    return _branch_evidence(_evidence(form, u_spec, no_probes)[0])


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
    Everything is read off the Kraus operators
    (:func:`telegate.executor.kraus_form`) by :func:`_evidence`, over the
    basis of :func:`_splits`: the basis probes, the Haar probes, none of
    which are drawn when ``probes`` is at most the dimension, and the
    Choi distance, which compares the whole channels
    (:func:`choi_residual`).  The census is the one the form carries,
    counted once per program shape.
    """
    check_specification(p, u_spec)
    haar = _haar_probes(p.n_external, probes, seed)
    form = kraus_form(p)
    terms, dist = _evidence(form, u_spec, haar)
    prob, seen, fid = _branch_evidence(terms)
    # Both count only the probes that reach each transcript (the mass
    # zeroes the rest first, so that its sum keeps numpy's pairwise
    # order); a transcript is hit exactly when its mass is positive,
    # since a seen p is at least 1e-14.
    mass = (np.where(seen, prob, 0.0).sum(axis=1) / prob.shape[1]).tolist()
    infid = (1.0 - fid).max(axis=1, where=seen, initial=0.0).tolist()
    # kraus_form lists transcripts in bit order over one wire list, which
    # is also the order of their keys: the report needs no sort.
    branches = tuple(
        BranchReport(transcript_key(transcript), mass[t], infid[t])
        for t, transcript in enumerate(form.transcripts)
        if mass[t] > 0.0
    )
    max_infid = max((b.max_infidelity for b in branches), default=0.0)
    verdict = "pass" if (max_infid <= tol_branch and dist <= tol_choi) else "fail"
    return EquivalenceReport(
        verdict, tol_branch, tol_choi, form.census, dist, branches
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
