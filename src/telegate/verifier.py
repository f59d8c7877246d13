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
It asks one rule, :func:`_factored`, once per call which route to take,
and runs that route from top to bottom:

* the dense route evaluates the stack Z = [S; K_t] directly: the images
  of the basis inputs are Z's own columns and those of the Haar probes
  one batched product, written beside them in one array, and the Choi
  distance is :func:`choi_residual` over the trivial basis {1};
* the factored route works over the program's own basis {I, V} (V the
  slot's gate), on which S = controlled(V) = P0 ⊗ I + P1 ⊗ V has the
  constant coefficients (P0, P1), without a d×d operator, and the Choi
  distance is :func:`choi_residual` over that basis.  The rows of
  coefficients and their pair products, which do not depend on V, come
  with the form from the executor's cache, so a warm call computes only
  what V changes.

The factored route runs when the program has a slot with gate V and one
external wire besides its targets (r = 2), S is exactly controlled(V)
with that wire as control, and the dense stack would hold more than
``BLOCK_CACHE_ENTRIES`` (2^12) complex entries; the dense one
otherwise, so at every size for a program without a slot or a
specification of any other form.  For built programs that puts the
boundary between k = 3 (1280 entries) and k = 4 (5120).  A spec that
:func:`qsim.controlled` built from the slot's own gate, as
``build_specification`` does for the program ``build_program`` makes
from the same spec, is controlled(V) by construction and is taken on
that record without reading S; any other is compared entry for entry
(:func:`_splits`), with the same answer.  Timed on 2
vCPUs (numpy 2.4, warm, both routes forced in turn in one process;
``BENCH_19.json``, where the host's speed changed between rows), a
verify of a built program on the dense route against the factored one
took 233 against 281 µs at k = 1, about the same at k = 3 (117
against 109 µs), 303 against 200 µs at k = 4 and 44 against 3.9 ms at
k = 8.

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
    BLOCK_CACHE_ENTRIES,
    TRIVIAL_BASIS,
    KrausForm,
    choi_residual,
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
        """Canonical JSON form; byte-identical for identical inputs and seed.

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
    one more external wire (r = 2), so that the form carries the rows the
    factored route reads, and S = P0 ⊗ I + P1 ⊗ V entry for entry (its
    off-diagonal blocks zero, its diagonal blocks the basis).

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


def _factored(form: KrausForm, spec: UnitaryMatrix) -> bool:
    """The route rule, which :func:`verify_program` and ``telegate trace``
    (through :func:`basis_evidence`) both read: the factored basis when
    the spec is the slot's controlled(V) (:func:`_splits`) and the dense
    stack [S; K_t] would hold more than ``BLOCK_CACHE_ENTRIES`` (2^12)
    complex entries, else the dense stack.  For built programs (4
    transcripts, d = 2^(k+1)) that is k >= 4 (5120 entries; 1280 at
    k = 3), where the factored basis is the faster (see the module
    docstring).  It sizes the stack from the form alone, so that a spec
    taken on its record is not read at all."""
    d = form.coeffs.shape[-1] * form.basis.shape[-1]
    return (1 + len(form.coeffs)) * d * d > BLOCK_CACHE_ENTRIES and _splits(form, spec)


def _evidence(
    form: KrausForm, u_spec: UnitaryMatrix, probes: np.ndarray
) -> tuple[np.ndarray, float]:
    """The terms of the images of every probe under the specification S
    and the K_t of ``form``, and the Choi distance between the two
    channels, both on the route :func:`_factored` picks, which is
    evaluated here once.

    The terms are a (2, 1 + T, d + k) array over the d basis inputs e_j,
    then the k columns psi_j of the d×k ``probes``, with rows Z_0 = S and
    Z_1+t = K_t: [0, u, j] = |Z_u psi_j|^2 and
    [1, u, j] = <Z_0 psi_j, Z_u psi_j>.  Summed over the basis inputs,
    the overlaps are the <S, Z_u> that :func:`choi_residual` reads.

    The dense route writes the stack [S; K_t] into the first d columns of
    one (1 + T, d, d + k) array of images, since the images of the e_j
    are its columns, and the images of the probes into its last k
    columns, from one batched product with the stack; its basis is {1}.

    The factored route works over the channel's own basis {I, V}, V the
    slot's gate, where S = controlled(V) has the coefficients (P0, P1)
    and K_t = X_t ⊗ I + Y_t ⊗ V has (X_t, Y_t); it reads no block of S.
    Its rows Z = [P0, P1; X_t, Y_t] and their pair products come with the
    form (``form.rows`` and ``form.pairs``, see
    :func:`telegate.executor._operands`), cached with the coefficients,
    so a warm call computes only what V changes.  On a basis input
    e = e_i ⊗ e_q (j = i * m + q), with G_q[b, c] = <M_b e_q, M_c e_q>
    the column Grams of the basis (their sum is its metric), both terms
    are one product of the pairs with the G_q:
    |Z_u e|^2 = sum_bc <Z_ub e_i, Z_uc e_i> G_q[b, c], row u = 0 being
    |S e|^2, and, since S e = e_i ⊗ M_i e_q, <S e, Z_u e> =
    sum_c Z_uc[i, i] G_q[i, c] = sum_bc δ_bi Z_uc[i, i] G_q[b, c].  A
    probe psi splits into r parts psi_i on the basis's wires, the basis
    is applied to each, and its images sum_bi Z_ub[:, i] ⊗ M_b psi_i are
    assembled from those.
    """
    d, k = probes.shape
    if not _factored(form, u_spec):
        images = np.empty((1 + len(form.coeffs), d, d + k), dtype=np.complex128)
        images[0, :, :d] = u_spec.matrix
        images[1:, :, :d] = dense(form)
        if k:
            np.matmul(images[:, :, :d], probes, out=images[:, :, d:])
        terms = _image_terms(images)
        onto = terms[1, :, :d].sum(axis=1)
        return terms, choi_residual(images[:, None, :, :d], TRIVIAL_BASIS, None, onto)
    rows, basis = form.rows, form.basis
    columns = basis.transpose(2, 1, 0)  # [q, x, b] = M_b[x, q]
    grams = columns.conj().transpose(0, 2, 1) @ columns  # [q, b, c] = <M_b e_q, M_c e_q>
    u, _, r, _ = rows.shape
    m = len(grams)
    # [0, u, i, q] = |Z_u e|^2 and [1, u, i, q] = <S e, Z_u e> on e = e_i ⊗ e_q
    terms = (form.pairs.reshape(-1, 4) @ grams.reshape(m, 4).T).reshape(2, u, r * m)
    if k:
        applied = (basis[:, None] @ probes.reshape(1, r, m, k)).reshape(2 * r, m * k)
        images = (rows.transpose(0, 2, 1, 3).reshape(u * r, 2 * r) @ applied).reshape(u, r * m, k)
        terms = np.concatenate((terms, _image_terms(images)), axis=2)
    onto = terms[1, :, :d].sum(axis=1)
    return terms, choi_residual(rows, basis, grams.sum(axis=0), onto)


def _image_terms(images: np.ndarray) -> np.ndarray:
    """The (2, 1 + T, n) squared norms |images[u, :, j]|^2 and overlaps
    <images[0, :, j], images[u, :, j]> of the columns of the
    (1 + T, d, n) ``images``."""
    left = images.conj()
    terms = np.empty((2, len(images), images.shape[2]), dtype=np.complex128)
    np.einsum("uij,uij->uj", left, images, out=terms[0])
    np.einsum("ij,uij->uj", left[0], images, out=terms[1])
    return terms


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
    :func:`verify_program` computes for its basis probes, on the same
    route."""
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
    (:func:`telegate.executor.kraus_form`) by :func:`_evidence`, on the
    route of :func:`_factored`: the basis probes, the Haar probes, none of
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
