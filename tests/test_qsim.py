import copy
import math
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ensemble import basis, haar_random_state, unit, zero_state
from telegate import executor, qsim
from telegate.executor import ExecutionError, _apply, _checked, _layout, _permutation, _positions, _run
from telegate.protocol import ApplyLocal, ExternalWire, MeasureZ, Party, Program, cwire, qwire
from telegate.qsim import UnitaryMatrix
from telegate.verifier import _branch_evidence

SQ2 = 1 / math.sqrt(2)
BELL = np.array([SQ2, 0, 0, SQ2], dtype=np.complex128)  # (|00> + |11>)/sqrt(2)


def n_qubits(state: np.ndarray) -> int:
    return state.size.bit_length() - 1


def apply(state: np.ndarray, positions, u: UnitaryMatrix, controlled=False) -> np.ndarray:
    """``executor._apply`` on one unit state (a batch of one).  ``_apply``
    may rewrite its input, so it gets a copy."""
    psi = unit(state).reshape((2,) * n_qubits(state) + (1,)).copy()
    perm, inverse = _permutation(psi.ndim, tuple(positions))
    return unit(_apply(psi, perm, inverse, u.matrix, controlled).reshape(-1))


def measure(state: np.ndarray, qubit: int) -> list[tuple[int, float, np.ndarray]]:
    """``executor._layout`` and ``_run`` on a single MeasureZ, with the
    dust drop and checks of ``executor._checked``: ``(outcome,
    probability, renormalized post-state)`` per branch kept, by outcome."""
    n = n_qubits(unit(state))
    p = Program(
        tuple(ExternalWire(qwire(q), Party.ALICE) for q in range(n)),
        (MeasureZ(Party.ALICE, qwire(qubit), cwire(0)),),
    )
    layout = _layout(p)
    out = _run(layout, p.instructions, state.reshape((2,) * n + (1,)))[:, None]
    # One unit state, so the mass to check is 1: d = 1, the batch's width.
    transcripts, keep = _checked(layout, out, executor._gram(out), executor.TRIVIAL_METRIC, 1)
    ops = out if keep is None else out[keep]
    branches = []
    for ((_, outcome),), op in zip(transcripts, ops):
        v = op.reshape(-1)
        p = float(np.vdot(v, v).real)
        branches.append((outcome, p, unit(v / math.sqrt(p))))
    return sorted(branches, key=lambda b: b[0])


# kron

def test_kron_identity():
    assert np.array_equal(qsim.kron(qsim.I2, qsim.I2).matrix, np.eye(4))


def test_kron_qubit0_is_leftmost_factor():
    """kron(X, I) flips qubit 0: |00> -> |10>."""
    out = qsim.kron(qsim.X, qsim.I2).matrix @ zero_state(2)
    assert np.array_equal(out, basis("10"))


def test_kron_hh_uniform():
    out = qsim.kron(qsim.H, qsim.H).matrix @ zero_state(2)
    assert np.allclose(out, [0.5, 0.5, 0.5, 0.5])


def test_kron_dimension_cap():
    big = qsim.identity(1 << 7)
    with pytest.raises(ValueError, match="cap"):
        qsim.kron(big, big)


def test_max_qubits_env_override(qubit_cap):
    qubit_cap(3)
    assert qsim.max_qubits() == 3
    with pytest.raises(ValueError, match="cap"):
        qsim.identity(1 << 4)
    qubit_cap("junk")
    with pytest.raises(ValueError, match="integer"):
        qsim.max_qubits()


def test_the_cap_is_read_once(qubit_cap, monkeypatch):
    """A valid cap is kept until ``max_qubits.cache_clear()``; an invalid
    one raises on every call and is never kept."""
    qubit_cap(5)
    assert qsim.max_qubits() == 5
    monkeypatch.setenv("TELEGATE_MAX_QUBITS", "7")
    assert qsim.max_qubits() == 5
    qubit_cap("0")
    for _ in range(2):
        with pytest.raises(ValueError, match=">= 1, got 0"):
            qsim.max_qubits()
    monkeypatch.setenv("TELEGATE_MAX_QUBITS", "7")
    assert qsim.max_qubits() == 7


@pytest.mark.parametrize("name, entries", [
    ("I2", np.eye(2)),
    ("X", [[0, 1], [1, 0]]),
    ("Y", [[0, -1j], [1j, 0]]),
    ("Z", [[1, 0], [0, -1]]),
    ("H", np.array([[1, 1], [1, -1]]) / math.sqrt(2)),
    ("S", np.diag([1, 1j])),
    ("T", np.diag([1, np.exp(1j * math.pi / 4)])),
])
def test_fixed_gates_are_what_the_constructor_builds(name, entries):
    """The fixed gates are built without the constructor's checks (so that
    the import reads no cap); each is the unitary the constructor makes
    of its entries, bit for bit, read-only and with no provenance."""
    gate, want = getattr(qsim, name), UnitaryMatrix(entries)
    assert type(gate) is UnitaryMatrix and gate == want
    assert gate.matrix.dtype == np.complex128 and gate.matrix.tobytes() == want.matrix.tobytes()
    assert not gate.matrix.flags.writeable
    assert gate._controls is None


# controlled

def test_controlled_records_its_gate_and_nothing_else_does():
    """controlled(u) records u's own read-only matrix.  The record is not
    a field: equality and repr ignore it, it cannot be assigned, and a
    copy or pickle, rebuilt through the constructor, records nothing."""
    u = qsim.haar_random_unitary(4, 3)
    c = qsim.controlled(u)
    assert c._controls is u.matrix and not c._controls.flags.writeable
    assert u._controls is None and qsim.identity(8)._controls is None
    plain = UnitaryMatrix(c.matrix)
    assert plain._controls is None and plain == c and repr(plain) == repr(c)
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert twin == c and twin._controls is None
    with pytest.raises(AttributeError):
        c._controls = None


def dense_controlled(u: UnitaryMatrix) -> np.ndarray:
    """diag(I, U), written out here."""
    d = u.dim
    want = np.zeros((2 * d, 2 * d), dtype=complex)
    want[:d, :d], want[d:, d:] = np.eye(d), u.matrix
    return want


def test_controlled_builds_its_matrix_on_first_read(monkeypatch):
    """controlled(u) builds no matrix until ``matrix`` is read: dim,
    n_qubits and repr come from u; the first read builds diag(I, U) once,
    read-only, and later reads return that same array."""
    built = []
    block = qsim._controlled_block
    monkeypatch.setattr(qsim, "_controlled_block", lambda u: built.append(u) or block(u))
    u = qsim.haar_random_unitary(8, 11)
    c = qsim.controlled(u)
    assert (c.dim, c.n_qubits, repr(c)) == (16, 4, "UnitaryMatrix(dim=16)")
    assert built == []
    first = c.matrix
    assert built == [u.matrix] and c.matrix is first and len(built) == 1
    assert not first.flags.writeable and first.dtype == np.complex128
    assert np.array_equal(first, dense_controlled(u))
    with pytest.raises(AttributeError):
        c.missing  # only the matrix is filled on demand


def test_a_lazy_unitary_equals_its_dense_literal_both_ways():
    """Equality fills the matrix from either side, and compares it entry
    for entry with the unitary the constructor makes of the literal."""
    u = qsim.haar_random_unitary(4, 12)
    literal = UnitaryMatrix(dense_controlled(u))
    assert qsim.controlled(u) == literal and literal == qsim.controlled(u)
    assert qsim.controlled(u) != qsim.controlled(qsim.haar_random_unitary(4, 13))
    assert repr(qsim.controlled(u)) == repr(literal)


def test_copies_of_a_lazy_unitary_go_through_the_constructor():
    """A copy or pickle of a controlled unitary, filled or not, is rebuilt
    from its matrix by the constructor: equal, read-only, with no record."""
    u = qsim.haar_random_unitary(4, 14)
    want = dense_controlled(u)
    for make in (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
        for c in (qsim.controlled(u), qsim.controlled(u)):
            twin = make(c)
            assert type(twin) is UnitaryMatrix and twin._controls is None
            assert np.array_equal(twin.matrix, want) and twin == c
            assert not twin.matrix.flags.writeable
            c.matrix  # the second round copies a filled one


def test_threads_reading_a_fresh_lazy_unitary_get_the_full_matrix():
    """Four threads read ``matrix`` of one fresh controlled unitary at
    once: each gets a fully filled, read-only diag(I, U), and the unitary
    keeps one of them."""
    u = qsim.haar_random_unitary(32, 15)
    want = dense_controlled(u)
    for _ in range(20):
        c = qsim.controlled(u)
        barrier = threading.Barrier(4)
        got = []

        def read():
            barrier.wait()
            got.append(c.matrix)

        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 4
        for m in got:
            assert np.array_equal(m, want) and not m.flags.writeable
        assert any(c.matrix is m for m in got)



def test_controlled_identity():
    assert np.array_equal(qsim.controlled(qsim.I2).matrix, np.eye(4))


def test_controlled_x_is_cnot():
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1
    assert np.array_equal(qsim.controlled(qsim.X).matrix, cnot)


def test_controlled_rz_block():
    # expected values multiplied out independently of controlled()
    theta = 0.3
    expected = np.diag([1, 1, np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    assert np.allclose(qsim.controlled(qsim.rz(theta)).matrix, expected, atol=1e-15)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_controlled_bottom_block_is_exact(seed, n):
    u = qsim.haar_random_unitary(1 << n, seed)
    c = qsim.controlled(u)
    d = u.dim
    assert np.array_equal(c.matrix[d:, d:], u.matrix)
    assert np.array_equal(c.matrix[:d, :d], np.eye(d))


def _defect(m: np.ndarray) -> float:
    return float(np.abs(m.conj().T @ m - np.eye(len(m))).max())


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("scale", [0.0, 1e-12, 4e-12])
def test_controlled_has_the_defect_of_its_block(n, scale):
    """controlled() does not check U†U again: diag(I, U)†diag(I, U) - I is
    diag(0, U†U - I), so the result has U's defect, which U's own check
    bounded.  Near-unitary U (defect up to ~3e-11) included."""
    rng = np.random.default_rng(n)
    d = 1 << n
    noise = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = UnitaryMatrix(qsim.haar_random_unitary(d, rng).matrix + noise)
    c = qsim.controlled(u).matrix
    assert abs(_defect(c) - _defect(u.matrix)) <= 1e-15  # one rounding apart
    assert c.dtype == np.complex128 and not c.flags.writeable


# executor._apply: the one kernel that evolves a state

def test_apply_x_flips():
    assert np.array_equal(apply(zero_state(1), [0], qsim.X), basis("1"))


def test_apply_h_plus_state():
    state = apply(zero_state(1), [0], qsim.H)
    assert np.allclose(state, [SQ2, SQ2])


def test_apply_cnot_makes_bell():
    state = np.array([SQ2, 0, SQ2, 0], dtype=np.complex128)  # (|00> + |10>)/sqrt(2)
    for out in (apply(state, [0, 1], qsim.controlled(qsim.X)),
                apply(state, [0, 1], qsim.X, controlled=True)):
        assert np.allclose(out, BELL)


def test_apply_target_order_matters():
    """Applying controlled-X on (1, 0) controls on qubit 1."""
    state = basis("01")
    assert np.array_equal(apply(state, [1, 0], qsim.controlled(qsim.X)), basis("11"))
    assert np.array_equal(apply(state, [1, 0], qsim.X, controlled=True), basis("11"))


def test_apply_errors():
    """What reaches ``_apply`` is checked upstream: a gate's dimension and
    distinct wires by the instruction, wire presence by ``_positions``."""
    with pytest.raises(ValueError, match="dim"):
        ApplyLocal(Party.ALICE, (qwire(0), qwire(1)), qsim.X)
    with pytest.raises(ValueError, match="distinct"):
        ApplyLocal(Party.ALICE, (qwire(0), qwire(0)), qsim.controlled(qsim.X))
    with pytest.raises(ExecutionError, match="missing"):
        _positions({qwire(0): 0, qwire(1): 1}, (qwire(2),))


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.data())
def test_apply_preserves_norm(seed, n, data):
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(1, n))
    targets = data.draw(st.permutations(range(n))).copy()[:k]
    state = haar_random_state(n, rng)
    u = qsim.haar_random_unitary(1 << k, rng)
    out = apply(state, targets, u)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_apply_identity_is_identity(seed, n):
    state = haar_random_state(n, seed)
    out = apply(state, range(n), qsim.identity(1 << n))
    assert np.array_equal(out, state)


@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans(), st.data())
def test_apply_matches_index_arithmetic_embedding(seed, n, controlled, data):
    """Cross-check the transposing implementation, plain and controlled,
    against the test oracle's explicit permutation/index embedding."""
    from oracles import embed

    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(2 if controlled else 1, min(3, n)))
    targets = data.draw(st.permutations(range(n)))[:k]
    state = haar_random_state(n, rng)
    u = qsim.haar_random_unitary(1 << (k - controlled), rng)
    full = u.matrix
    if controlled:  # diag(I, U), written out here rather than by qsim.controlled
        full = np.eye(1 << k, dtype=complex)
        full[u.dim:, u.dim:] = u.matrix
    got = apply(state, targets, u, controlled)
    want = embed(full, list(targets), n) @ state
    assert np.abs(got - want).max() < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 3), st.data())
def test_controlled_apply_rewrites_only_the_control_1_half(seed, n, batch, data):
    """A controlled gate is applied in place: ``_apply`` returns the array
    it was given, with the control-0 half bit-identical to the input.  A
    plain gate leaves its input as it was."""
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(2, min(3, n)))
    targets = tuple(data.draw(st.permutations(range(n)))[:k])
    shape = (2,) * n + (batch,)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = psi.copy()
    axes = _permutation(psi.ndim, targets)
    out = _apply(psi, *axes, qsim.haar_random_unitary(1 << (k - 1), rng).matrix, controlled=True)
    assert out is psi
    control = targets[0]
    assert np.take(out, 0, axis=control).tobytes() == np.take(before, 0, axis=control).tobytes()
    kept = out.copy()
    _apply(out, *axes, qsim.haar_random_unitary(1 << k, rng).matrix)
    assert out.tobytes() == kept.tobytes()


# executor._run on one MeasureZ: the one way a state is measured

def test_measure_zero_state():
    branches = measure(zero_state(1), 0)
    assert len(branches) == 1
    outcome, probability, post_state = branches[0]
    assert outcome == 0
    assert probability == 1.0
    assert post_state.size == 1


def test_measure_bell_correlates():
    branches = measure(BELL, 0)
    assert [outcome for outcome, _, _ in branches] == [0, 1]
    for _, probability, _ in branches:
        assert abs(probability - 0.5) < 1e-12
    assert np.array_equal(branches[0][2], basis("0"))
    assert np.array_equal(branches[1][2], basis("1"))


def test_measure_plus_state():
    branches = measure(apply(zero_state(1), [0], qsim.H), 0)
    assert len(branches) == 2
    assert all(abs(probability - 0.5) < 1e-12 for _, probability, _ in branches)


def test_measure_prunes_impossible_branch():
    branches = measure(basis("10"), 1)
    assert len(branches) == 1 and branches[0][0] == 0


def test_measure_branch_completeness_1000_random_states():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        state = haar_random_state(n, rng)
        qubit = int(rng.integers(0, n))
        branches = measure(state, qubit)
        assert abs(sum(probability for _, probability, _ in branches) - 1.0) < 1e-12
        for _, _, post_state in branches:
            assert abs(np.linalg.norm(post_state) - 1.0) < 1e-12
            assert n_qubits(post_state) == n - 1


# fidelity: the verifier's branch-evidence formula, on one output and one target

def fidelity(output: np.ndarray, target: np.ndarray) -> float:
    """The evidence fidelity of branch output ``output`` (unnormalized)
    against target ``target``, as one transcript on one probe: the
    formula read on the inner products of the two."""
    images = np.stack((target, output))
    terms = np.stack((np.einsum("ui,ui->u", images.conj(), images), images.conj()[0] @ images.T))
    _, seen, fid = _branch_evidence(terms[:, :, None])
    assert seen[0, 0]
    return float(fid[0, 0])


def test_fidelity_trivial_cases():
    zero, one = basis("0"), basis("1")
    assert fidelity(zero, zero) == 1.0
    assert fidelity(zero, one) == 0.0
    assert fidelity(0.5 * zero, 3 * zero) == 1.0  # both sides are normalized


@given(st.integers(0, 2**32 - 1), st.floats(-10, 10))
def test_fidelity_global_phase_invariant(seed, phi):
    state = haar_random_state(2, seed)
    assert abs(fidelity(state, np.exp(1j * phi) * state) - 1.0) < 1e-12
    assert abs(fidelity(np.exp(1j * phi) * state, state) - 1.0) < 1e-12


def test_fidelity_is_capped_at_one():
    """Rounding puts |<u, v>| / |v| above 1 for about half of these
    states, with u = v; the fidelity never is."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        state = haar_random_state(2, rng)
        assert 1.0 - 1e-15 <= fidelity(state, state) <= 1.0


# construction invariants

def test_unitarity_gate_rejects_bad_matrix():
    with pytest.raises(ValueError, match="unitary"):
        UnitaryMatrix(np.array([[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="square"):
        UnitaryMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="power of two"):
        UnitaryMatrix(np.eye(3))


def test_states_and_unitaries_are_frozen():
    """The package's only states, the fresh-qubit amplitudes |0>, |1> and
    the Bell pair, are read-only complex128 arrays, as gates are."""
    for amps, want in zip(executor._FRESH, (basis("0"), basis("1"), BELL)):
        assert amps.dtype == np.complex128 and np.array_equal(amps, want)
        with pytest.raises(ValueError):
            amps[0] = 0.5
    with pytest.raises(ValueError):
        qsim.X.matrix[0, 0] = 9


def test_gate_convention_values():
    assert np.allclose(qsim.S.matrix, np.diag([1, 1j]))
    assert np.allclose(qsim.T.matrix, np.diag([1, np.exp(1j * np.pi / 4)]))
    assert np.allclose(qsim.H.matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    assert np.allclose(qsim.rz(0.4).matrix, np.diag([np.exp(-0.2j), np.exp(0.2j)]))


@given(st.integers(0, 2**32 - 1))
def test_haar_unitary_is_unitary(seed):
    u = qsim.haar_random_unitary(4, seed)
    assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(4)).max() < 1e-12
