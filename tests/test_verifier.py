import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ensemble import haar_random_state, probe_states, run_branches, unit
from golden_cases import reference_json
from oracles import choi_of_unitary, deferred_measurement_choi
from telegate import qsim
from telegate.builder import MUTATIONS, NonlocalCUSpec, apply_mutation, build_program, build_specification
from telegate.executor import kraus_choi_distance, kraus_stack, transcript_key
from telegate.protocol import MakeBellPair, Program, ResourceCensus, validate_locality
from telegate.qsim import UnitaryMatrix
from telegate.verifier import (
    DEFAULT_PROBES,
    BranchReport,
    EquivalenceReport,
    _haar_probes,
    verify,
    verify_program,
)


def test_identity_passes_tightly():
    report = verify(NonlocalCUSpec(qsim.I2, 1))
    assert report.passed
    assert report.choi_dist <= 1e-12
    assert all(b.max_infidelity <= 1e-12 for b in report.branches)
    assert (report.census.ebits, report.census.bits_alice_to_bob,
            report.census.bits_bob_to_alice) == (1, 1, 1)


def test_nonlocal_cnot_passes():
    report = verify(NonlocalCUSpec(qsim.X, 1))
    assert report.passed
    assert len(report.branches) == 4
    for b in report.branches:
        assert abs(b.probability - 0.25) < 1e-12


def test_missing_z_correction_fails_and_localizes():
    spec = NonlocalCUSpec(qsim.X, 1)
    mutated = apply_mutation(build_program(spec), "drop-z-correction")
    report = verify_program(mutated, build_specification(spec))
    assert not report.passed

    # the damage shows up exactly on the c2=1 branches of a superposed control
    plus_zero = unit(np.array([1, 0, 1, 0], dtype=np.complex128) / math.sqrt(2))
    expected = unit(build_specification(spec).matrix @ plus_zero)
    for outcome in run_branches(mutated, plus_zero):
        fid = abs(np.vdot(outcome.final_state, expected))
        c2 = outcome.bits[-1]
        if c2 == 1:
            assert fid < 0.9
        else:
            assert fid > 1 - 1e-10


@pytest.mark.parametrize("mutation", ["drop-bell", "drop-x-correction", "drop-z-correction", "drop-cgate"])
def test_every_mutation_flips_the_verdict(mutation):
    spec = NonlocalCUSpec(qsim.X, 1)
    mutated = apply_mutation(build_program(spec), mutation)
    report = verify_program(mutated, build_specification(spec))
    assert report.verdict == "fail"
    assert report.max_infidelity > 0.1 or report.choi_dist > 0.1


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_choi_distance_matches_deferred_measurement_oracle(k, mutation):
    """The residual Choi distance, over the dense stack and over the
    factored form that verify_program reads, equals the dense distance
    between the dilation's Choi matrix and the unitary's, both from
    definition sums;
    dropping the Z correction leaves (Z x I)CU, orthogonal to CU, on half
    the transcripts, at distance exactly 1/sqrt(2)."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, 40 + k), k)
    program = build_program(spec)
    if mutation:
        program = apply_mutation(program, mutation)
    u = build_specification(spec)
    want = np.linalg.norm(deferred_measurement_choi(program) - choi_of_unitary(u.matrix))
    got = kraus_choi_distance(kraus_stack(program)[1], u)
    factored = verify_program(program, u).choi_dist
    for dist in (got, factored):
        assert abs(dist - want) <= 1e-14
        if mutation == "drop-z-correction":
            assert abs(dist - 2**-0.5) <= 1e-14


@pytest.mark.parametrize("mutation", [None, "drop-z-correction"])
def test_choi_distance_to_a_nearly_unitary_literal(mutation):
    """An --against matrix need be unitary only within 1e-10: the distance
    still equals the dense oracle's when U†U - I is ~1e-11."""
    program = build_program(NonlocalCUSpec(qsim.X, 1))
    if mutation:
        program = apply_mutation(program, mutation)
    rng = np.random.default_rng(5)
    cnot = qsim.controlled(qsim.X).matrix
    u = UnitaryMatrix(cnot + 3e-12 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))))
    assert 5e-12 < np.abs(u.matrix.conj().T @ u.matrix - np.eye(4)).max() < 1e-10
    want = np.linalg.norm(deferred_measurement_choi(program) - choi_of_unitary(u.matrix))
    assert abs(kraus_choi_distance(kraus_stack(program)[1], u) - want) <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mutation", [None, "drop-x-correction", "drop-cgate"])
def test_branch_evidence_matches_explicit_probe_products(k, mutation):
    """Reading the basis probes off the Kraus stack gives the evidence of
    the explicit product ops @ probe_states(...), within 1e-15, whether
    the probes are fewer than, equal to or more than the basis."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, 60 + k), k)
    program = build_program(spec)
    if mutation:
        program = apply_mutation(program, mutation)
    u = build_specification(spec).matrix
    transcripts, ops = kraus_stack(program)
    d = u.shape[0]
    for probes in (1, d, d + 5, 16):
        psi = probe_states(program.n_external, probes, seed=k)
        out = ops @ psi
        expected = u @ psi
        expected /= np.linalg.norm(expected, axis=0)
        prob = np.einsum("tij,tij->tj", out.conj(), out).real
        seen = prob >= 1e-14
        fid = np.abs(np.einsum("ij,tij->tj", expected.conj(), out)) / np.sqrt(np.where(seen, prob, 1))
        infid = np.where(seen, 1 - np.minimum(1, fid), 0).max(axis=1)
        mass = np.where(seen, prob, 0).sum(axis=1) / psi.shape[1]
        report = verify_program(program, build_specification(spec), probes=probes, seed=k)
        assert [b.transcript for b in report.branches] == [transcript_key(t) for t in transcripts]
        for t, b in enumerate(report.branches):
            assert abs(b.probability - mass[t]) <= 1e-15
            assert abs(b.max_infidelity - infid[t]) <= 1e-15


def _eigenphase_distance(theta: np.ndarray) -> float:
    """Choi distance of two unitary channels whose relative unitary has
    eigenphases ``theta``, free of the cancellation in
    sqrt(2 - 2|tr|^2/D^2): (2/D) sqrt(sum_jk sin^2((theta_j - theta_k)/2))."""
    half = (theta[:, None] - theta[None, :]) / 2
    return 2 / len(theta) * math.sqrt(float((np.sin(half) ** 2).sum()))


@pytest.mark.parametrize("k", range(1, 9))
def test_resolution_sweep(k):
    """Certify C(V) against C(U) for V = U W diag(e^{i eps h}) W†, eps =
    1e-2 .. 1e-12 for k <= 3 and a few eps around tol_choi above, where
    every default probe is a basis column.  C(V)†C(U) has eigenphases 0
    (d times) and -eps h_j, so the distance is known without
    cancellation; the reported distance must match it within 1e-6
    relative, and the verdict fail exactly where it exceeds tol_choi.
    Branch infidelity scales as eps^2, so below eps ~ 1e-5 the Choi
    distance alone catches the defect."""
    rng = np.random.default_rng(70 + k)
    d = 1 << k
    u = qsim.haar_random_unitary(d, rng).matrix
    w = qsim.haar_random_unitary(d, rng).matrix
    h = rng.uniform(-1, 1, size=d)
    spec_u = build_specification(NonlocalCUSpec(UnitaryMatrix(u), k))
    exponents = np.arange(2, 13) if k <= 3 else np.array([4, 8, 9, 11])
    for eps in 10.0 ** -exponents:
        v = UnitaryMatrix(u @ w @ np.diag(np.exp(1j * eps * h)) @ w.conj().T)
        report = verify_program(build_program(NonlocalCUSpec(v, k)), spec_u)
        ref = _eigenphase_distance(np.concatenate([np.zeros(d), -eps * h]))
        assert abs(report.choi_dist - ref) <= 1e-6 * ref + 1e-15, (eps, report.choi_dist, ref)
        assert (report.verdict == "fail") == (ref > report.tol_choi), eps
        if eps <= 1e-6:
            assert report.max_infidelity <= report.tol_branch, eps


def test_literal_bell_deletion_is_rejected_by_validator():
    p = build_program(NonlocalCUSpec(qsim.X, 1))
    idx = next(i for i, ins in enumerate(p.instructions) if isinstance(ins, MakeBellPair))
    deleted = Program(
        p.externals,
        p.instructions[:idx] + p.instructions[idx + 1:],
        p.phases[:idx] + p.phases[idx + 1:],
    )
    assert validate_locality(deleted)
    with pytest.raises(ValueError, match="locality"):
        verify_program(deleted, build_specification(NonlocalCUSpec(qsim.X, 1)))


@given(st.integers(0, 2**32 - 1), st.floats(-math.pi, math.pi))
def test_global_phase_on_gate_does_not_affect_verdict(seed, phi):
    c = qsim.haar_random_unitary(2, seed)
    report = verify(NonlocalCUSpec.for_gate(c), probes=6)
    rotated = UnitaryMatrix(np.exp(1j * phi) * c.matrix)
    report_rotated = verify(NonlocalCUSpec.for_gate(rotated), probes=6)
    assert report.passed and report_rotated.passed


def test_reports_are_deterministic_bytes():
    a = verify(NonlocalCUSpec(qsim.T, 1), seed=123).to_json()
    b = verify(NonlocalCUSpec(qsim.T, 1), seed=123).to_json()
    assert a.encode() == b.encode()
    c = verify(NonlocalCUSpec(qsim.T, 1), seed=124).to_json()
    assert json.loads(c)["verdict"] == "pass"  # different seed, same verdict


def test_equal_reports_hash_equal_when_hashed():
    """Reports compute their hash when asked, not when built; two equal
    reports, from two runs or two cache states, still hash equal and
    are one dict key, branch reports too."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(16, 31), 4)
    a = verify(spec, seed=5)
    b = verify_program(build_program(spec), build_specification(spec), seed=5)
    assert a is not b and a == b and a.to_json() == b.to_json()
    assert not hasattr(a, "_hash") and not hasattr(a.branches[0], "_hash")
    assert hash(a) == hash(b) and {a: 1}[b] == 1
    assert hash(a.branches[0]) == hash(b.branches[0]) and len(set(a.branches + b.branches)) == 4
    other = verify(spec, tol_choi=1e-8, seed=5)
    assert other != a and len({a, b, other}) == 2


def test_report_json_schema():
    doc = json.loads(verify(NonlocalCUSpec(qsim.H, 1)).to_json())
    assert set(doc) == {"verdict", "tolerances", "census", "choi_distance", "branches"}
    assert doc["verdict"] == "pass"
    assert doc["tolerances"] == {"branch": 1e-10, "choi": 1e-9}
    assert doc["census"] == {"ebits": 1, "a_to_b": 1, "b_to_a": 1}
    assert len(doc["branches"]) == 4
    assert set(doc["branches"][0]) == {"transcript", "probability", "max_infidelity"}


@pytest.mark.parametrize("value", [0, 1, math.inf, math.nan, -0.0, 5e-324, np.float64(0.1)])
def test_to_json_writes_what_json_dumps_writes(value):
    """to_json is byte for byte the reference dict through json.dumps, for
    ints, non-finite and extreme floats and float subclasses alike."""
    census = ResourceCensus(1, 1, 0)
    branches = (BranchReport("c1=0", value, value), BranchReport("-", 0.5, 0.0))
    for report in (
        EquivalenceReport("pass", value, value, census, value, branches),
        EquivalenceReport("fail", 1e-10, value, census, 0.0, ()),
    ):
        assert report.to_json() == reference_json(report)


def test_a_zero_probe_is_refused(monkeypatch):
    """A Haar probe whose draw is all zeros has no norm to divide by (0/0
    leaves NaNs, whose warning is silenced here): refused from
    _haar_probes and from verify_program alike."""
    draw_rng = np.random.default_rng

    class OneZeroProbe:
        def __init__(self, seed):
            self.rng = draw_rng(seed)

        def normal(self, size):
            draw = self.rng.normal(size=size)
            draw[3] = 0.0
            return draw

    monkeypatch.setattr(np.random, "default_rng", OneZeroProbe)
    spec = NonlocalCUSpec(qsim.H, 1)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="^probe amplitudes must be finite$"):
            _haar_probes(1, DEFAULT_PROBES, 0)
        with pytest.raises(ValueError, match="^probe amplitudes must be finite$"):
            verify_program(build_program(spec), build_specification(spec))


def test_verify_program_builder_h_against_controlled_h():
    spec = NonlocalCUSpec(qsim.H, 1)
    report = verify_program(build_program(spec), qsim.controlled(qsim.H))
    assert report.passed


def test_verify_program_empty_against_identity():
    from telegate.protocol import ExternalWire, Party, qwire

    empty = Program((ExternalWire(qwire(0), Party.ALICE), ExternalWire(qwire(1), Party.BOB)))
    assert verify_program(empty, qsim.identity(4)).passed


def test_verify_program_empty_against_cnot_fails_loudly():
    from telegate.protocol import ExternalWire, Party, qwire

    empty = Program((ExternalWire(qwire(0), Party.ALICE), ExternalWire(qwire(1), Party.BOB)))
    report = verify_program(empty, qsim.controlled(qsim.X))
    assert not report.passed
    assert report.choi_dist > 0.5


def test_verify_program_dimension_mismatch():
    from telegate.protocol import ExternalWire, Party, qwire

    empty = Program((ExternalWire(qwire(0), Party.ALICE),))
    with pytest.raises(ValueError, match="match"):
        verify_program(empty, qsim.identity(4))


@pytest.mark.parametrize("k, probes", [(2, 4), (4, DEFAULT_PROBES)])
def test_basis_probes_draw_nothing(monkeypatch, k, probes):
    """With probes <= d every probe is a basis column: verify_program
    seeds no generator, and reports what it reported before that was
    refused."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, 80 + k), k)
    program, u = build_program(spec), build_specification(spec)
    want = verify_program(program, u, probes=probes).to_json()

    def refuse(*args, **kwargs):
        raise AssertionError("a probe was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert verify_program(program, u, probes=probes).to_json() == want


@pytest.mark.parametrize("n, probes, seed", [(1, 16, 0), (1, 3, 3), (3, 9, 5), (4, 40, 2)])
def test_haar_block_is_the_probe_matrix_tail(n, probes, seed):
    """The block verify_program multiplies is, bit for bit, the Haar part
    of the full probe matrix."""
    d = 1 << n
    haar = _haar_probes(n, probes, seed)
    assert haar.shape == (d, probes - d) and haar.dtype == np.complex128
    assert haar.tobytes() == np.ascontiguousarray(probe_states(n, probes, seed)[:, d:]).tobytes()


def test_probe_states_always_include_basis():
    probes = probe_states(2, 2, seed=0)  # fewer requested than the basis
    assert probes.shape == (4, 4)
    probes = probe_states(2, 7, seed=0)
    assert probes.shape == (4, 7) and probes.dtype == np.complex128
    assert np.array_equal(probes[:, :4], np.eye(4))


@pytest.mark.parametrize(
    "n, probes, seed",
    [(1, 16, 0), (1, 1, 3), (2, 3, 7), (2, 16, 11), (3, 9, 5), (4, 40, 2), (6, 70, 9)],
)
def test_probe_stream_matches_successive_haar_states(n, probes, seed):
    """The Haar columns are the states successive haar_random_state calls
    draw from one generator seeded with ``seed``."""
    d = 1 << n
    psi = probe_states(n, probes, seed)
    assert psi.shape == (d, max(probes, d))
    rng = np.random.default_rng(seed)
    for j in range(d, psi.shape[1]):
        want = haar_random_state(n, rng)
        assert np.abs(psi[:, j] - want).max() <= 1e-15
