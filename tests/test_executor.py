import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ensemble import basis, branch_density, haar_random_state, run_branches
from oracles import (
    choi_of_unitary,
    deferred_measurement_choi,
    deferred_measurement_density,
    deferred_measurement_kraus,
    random_program_text,
)
from telegate import executor, qsim
from telegate.builder import MUTATIONS, NonlocalCUSpec, apply_mutation, build_program
from telegate.executor import (
    ExecutionError,
    _layout,
    channel_choi,
    kraus_choi_distance,
    kraus_form,
    kraus_stack,
)
from telegate.protocol import (
    ApplyLocal,
    ConditionalPauli,
    DiscardBit,
    ExternalWire,
    MeasureZ,
    Party,
    Program,
    cwire,
    parse_program,
    qwire,
    resource_census,
    validate_locality,
)


def two_wire_program(*instructions, phases=()) -> Program:
    externals = (ExternalWire(qwire(0), Party.ALICE), ExternalWire(qwire(1), Party.BOB))
    return Program(externals, instructions, phases)


def test_empty_program_single_branch():
    state = haar_random_state(2, 5)
    outcomes = run_branches(two_wire_program(), state)
    assert len(outcomes) == 1
    assert outcomes[0].transcript == ()
    assert outcomes[0].probability == 1.0
    assert np.array_equal(outcomes[0].final_state, state)


def test_identity_gate_teleportation_on_00():
    p = build_program(NonlocalCUSpec(qsim.I2, 1))
    outcomes = run_branches(p, basis("00"))
    want = basis("00")
    assert len(outcomes) == 4
    for o in outcomes:
        assert abs(o.probability - 0.25) < 1e-12
        assert abs(abs(np.vdot(o.final_state, want)) - 1) < 1e-12


def test_cnot_teleportation_on_10():
    p = build_program(NonlocalCUSpec(qsim.X, 1))
    outcomes = run_branches(p, basis("10"))
    want = basis("11")
    assert len(outcomes) == 4
    for o in outcomes:
        assert abs(o.probability - 0.25) < 1e-12
        assert abs(abs(np.vdot(o.final_state, want)) - 1) < 1e-12


def test_outcomes_sorted_by_transcript_bits():
    p = build_program(NonlocalCUSpec(qsim.H, 1))
    outcomes = run_branches(p, basis("10"))
    assert [o.bits for o in outcomes] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [w.name for w, _ in outcomes[0].transcript] == ["c1", "c2"]


@given(st.integers(0, 2**32 - 1))
def test_transcript_uniformity_for_any_gate_and_input(seed):
    rng = np.random.default_rng(seed)
    p = build_program(NonlocalCUSpec.for_gate(qsim.haar_random_unitary(2, rng)))
    outcomes = run_branches(p, haar_random_state(2, rng))
    assert len(outcomes) == 4
    for o in outcomes:
        assert abs(o.probability - 0.25) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_branch_mixture_matches_deferred_measurement_oracle(seed):
    rng = np.random.default_rng(seed)
    p = build_program(NonlocalCUSpec.for_gate(qsim.haar_random_unitary(2, rng)))
    state = haar_random_state(2, rng)
    rho_branches = branch_density(run_branches(p, state))
    rho_oracle = deferred_measurement_density(p, state)
    assert np.abs(rho_branches - rho_oracle).max() < 1e-10


def test_interleaved_alloc_and_measure_keeps_positions_straight():
    """Index compaction: wires allocated/measured in scrambled order must
    still route gates to the right qubits."""
    text = """\
    ext A q0
    alloc A q4 = 1
    alloc A q5 = 0
    gate A q5 : X
    measz A q4 -> c1
    gate A q5 : X
    cpauli A q0 X if c1
    measz A q5 -> c2
    discard c1
    discard c2
    """
    from telegate.protocol import parse_program

    program = parse_program(text)
    outcomes = run_branches(program, basis("0"))
    # q4 was |1> so c1=1 fires the X on q0; q5 was toggled twice back to |0>
    assert len(outcomes) == 1
    assert outcomes[0].bits == (1, 0)
    assert np.array_equal(outcomes[0].final_state, basis("1"))


def test_verify_program_on_handwritten_local_file():
    from telegate.protocol import parse_program
    from telegate.verifier import verify_program

    program = parse_program("ext A q0\ngate A q0 : H\n")
    assert verify_program(program, qsim.H).passed
    assert not verify_program(program, qsim.X).passed


def test_run_rejects_invalid_program():
    p = two_wire_program(MeasureZ(Party.ALICE, qwire(0), cwire(1)), DiscardBit(cwire(1)))
    with pytest.raises(ValueError, match="locality"):
        run_branches(p, basis("00"))


def test_run_rejects_wrong_input_size():
    with pytest.raises(ValueError, match="declares"):
        run_branches(two_wire_program(), basis("0"))


def test_unset_conditioning_bit_is_execution_error():
    # bypass validation on purpose: the executor must still refuse
    bad = (ConditionalPauli(Party.ALICE, qwire(0), "X", cwire(7)),)
    with pytest.raises(ExecutionError, match="unset"):
        _layout(Program((ExternalWire(qwire(0), Party.ALICE),), bad))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kraus_operators_of_built_programs_are_complete(k):
    """sum_t K_t†K_t = I for every built program, mutated or not; intact
    programs have K_t†K_t = I/4, so each transcript has probability 1/4
    for every input, not only the sampled ones."""
    d = 1 << (k + 1)
    spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, 70 + k), k)
    for mutation in (None, *MUTATIONS):
        program = build_program(spec)
        if mutation:
            program = apply_mutation(program, mutation)
        _, kraus = kraus_stack(program)
        total = sum(op.conj().T @ op for op in kraus)
        assert np.abs(total - np.eye(d)).max() <= 1e-12
        if mutation is None:
            assert len(kraus) == 4
            for op in kraus:
                assert np.abs(op.conj().T @ op - np.eye(d) / 4).max() <= 1e-12


def test_kraus_register_cap_counts_live_qubits_only(qubit_cap):
    """k=1 keeps 4 qubits alive; the d=4 batch axis does not count."""
    p = build_program(NonlocalCUSpec(qsim.X, 1))
    qubit_cap(4)
    assert len(kraus_stack(p)[1]) == 4
    qubit_cap(3)
    with pytest.raises(ValueError, match="4 qubits alive.*3-qubit cap"):
        kraus_stack(p)


@pytest.mark.parametrize("k", range(1, 9))
def test_cap_counts_the_register_the_pass_holds(k):
    """lint, channel_choi and a cold kraus_stack check the cap on
    _register_width; the pass allocates _layout's width."""
    program = build_program(NonlocalCUSpec(qsim.identity(1 << k), k))
    for p in (program, *(apply_mutation(program, m) for m in MUTATIONS)):
        assert executor._register_width(p) == _layout(p).width


def test_cap_counts_the_register_of_random_valid_programs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = parse_program(random_program_text(rng))
        assert executor._register_width(p) == _layout(p).width


def test_kraus_pass_checks_its_operators(monkeypatch):
    """The checks run on every call, on a cold layout cache and on a warm one."""
    p = build_program(NonlocalCUSpec(qsim.X, 1))
    run = executor._run

    def tampered(edit):
        return lambda *args: edit(run(*args))

    for edit, error in (
        # transcript 0 never happens: its row is dropped as dust
        (lambda s: s * np.array([0, 1, 1, 1])[:, None, None], "trace preserving"),
        (lambda s: s * np.nan, "finite"),
    ):
        monkeypatch.setattr(executor, "_run", tampered(edit))
        executor._LAYOUTS.clear()
        for _ in ("cold", "warm"):
            with pytest.raises(ExecutionError, match=error):
                kraus_stack(p)
            assert len(executor._LAYOUTS) == 1


def test_straight_line_pass_applies_each_gate_once(monkeypatch):
    """On a cold layout cache, one ``_apply`` per gate or conditional
    instruction of a built k=1 program outside its slot (Alice's CNOT, H,
    2 conditional Paulis; the slot is a selector step), not one per
    branch prefix as a depth-first walk makes; on a warm one none, since
    the entry holds the coefficients, also for another gate in the slot."""
    calls = []
    apply = executor._apply
    monkeypatch.setattr(executor, "_apply", lambda *a, **kw: calls.append(a) or apply(*a, **kw))
    p = build_program(NonlocalCUSpec(qsim.X, 1))
    executor._LAYOUTS.clear()
    for program, want in ((p, 4), (p, 0), (build_program(NonlocalCUSpec(qsim.H, 1)), 0)):
        calls.clear()
        kraus_stack(program)
        assert len(calls) == want
    assert len(executor._LAYOUTS) == 1


# The layout cache: one layout per program shape

def cold_kraus_stack(p: Program):
    executor._LAYOUTS.clear()
    return kraus_stack(p)


def assert_same_stack(got, want):
    assert got[0] == want[0]
    assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_warm_layout_gives_the_cold_result(k):
    """Bit-identical transcripts and stacks from a cold and a warm cache,
    for intact and mutated built programs, and for a second gate of the
    same k, which has the same shape and so reuses the first's layout."""
    specs = [NonlocalCUSpec(qsim.haar_random_unitary(1 << k, 40 + k + j), k) for j in range(2)]
    for mutation in (None, *MUTATIONS):
        first, second = (
            apply_mutation(build_program(s), mutation) if mutation else build_program(s)
            for s in specs
        )
        cold = cold_kraus_stack(first)
        assert_same_stack(kraus_stack(first), cold)
        want = cold_kraus_stack(second)
        kraus_stack(first)
        assert_same_stack(kraus_stack(second), want)
        assert len(executor._LAYOUTS) == 1


def assert_distinct_layouts(text_a: str, text_b: str):
    """Programs ``a`` and ``b`` differ in one field and in their channels:
    with ``a``'s layout cached, ``b`` still gets a layout of its own and
    the result a cold cache gives."""
    a, b = parse_program(text_a), parse_program(text_b)
    want = cold_kraus_stack(b)
    other = cold_kraus_stack(a)
    got = kraus_stack(b)
    assert len(executor._LAYOUTS) == 2
    assert_same_stack(got, want)
    assert got[1].tobytes() != other[1].tobytes()


def test_alloc_basis_value_is_part_of_the_shape():
    text = "ext A q0\nalloc A q1 = {}\ncgate A q1 -> q0 : X\nmeasz A q1 -> c1\n"
    assert_distinct_layouts(text.format(0), text.format(1))


def test_cpauli_letter_is_part_of_the_shape():
    text = "ext A q0\nalloc A q1 = 0\ngate A q1 : H\nmeasz A q1 -> c1\ncpauli A q0 {} if c1\n"
    assert_distinct_layouts(text.format("X"), text.format("Z"))


def test_wire_id_is_part_of_the_shape():
    text = "ext A q0\next A q1\ngate A q{} : X\n"
    assert_distinct_layouts(text.format(0), text.format(1))


def test_party_is_part_of_the_shape():
    """Moving one gate to the other party makes the program invalid: a
    cached layout of the valid one must not let it through."""
    text = "ext A q0\next B q1\ngate {} q0 : X\n"
    valid, invalid = parse_program(text.format("A")), parse_program(text.format("B"))
    cold_kraus_stack(valid)
    with pytest.raises(ValueError, match="cross-party quantum touch"):
        kraus_stack(invalid)
    assert len(executor._LAYOUTS) == 1


def test_invalid_program_is_refused_every_time_and_never_cached():
    p = two_wire_program(MeasureZ(Party.ALICE, qwire(0), cwire(1)), DiscardBit(cwire(1)))
    executor._LAYOUTS.clear()
    messages = []
    for _ in range(3):
        with pytest.raises(ValueError, match="locality") as info:
            kraus_stack(p)
        messages.append(str(info.value))
        assert executor._LAYOUTS == {}
    assert len(set(messages)) == 1


def test_lowered_cap_refuses_a_cached_layout(qubit_cap):
    p = build_program(NonlocalCUSpec(qsim.X, 1))  # 4 qubits alive
    qubit_cap(3)
    with pytest.raises(ValueError) as cold:
        cold_kraus_stack(p)
    assert executor._LAYOUTS == {}
    qubit_cap(None)
    kraus_stack(p)
    assert len(executor._LAYOUTS) == 1
    qubit_cap(3)
    with pytest.raises(ValueError) as warm:
        kraus_stack(p)
    assert str(warm.value) == str(cold.value)
    assert "4 qubits alive" in str(warm.value)


def test_layout_cache_is_bounded_oldest_first():
    """More shapes than the cache holds: it keeps the newest
    LAYOUT_CACHE_SIZE, and an evicted shape is laid out again."""
    programs = [
        Program(
            (ExternalWire(qwire(0), Party.ALICE),),
            (ApplyLocal(Party.ALICE, (qwire(0),), qsim.H),) * i,
        )
        for i in range(executor.LAYOUT_CACHE_SIZE + 8)
    ]
    executor._LAYOUTS.clear()
    for p in programs:
        kraus_stack(p)
        assert len(executor._LAYOUTS) <= executor.LAYOUT_CACHE_SIZE
    assert len(executor._LAYOUTS) == executor.LAYOUT_CACHE_SIZE
    assert executor._shape(programs[0]) not in executor._LAYOUTS
    assert executor._shape(programs[-1]) in executor._LAYOUTS
    assert_same_stack(kraus_stack(programs[0]), ([()], np.eye(2)[None].astype(complex)))


@given(st.integers(0, 2**32 - 1))
def test_kraus_pass_matches_per_transcript_dilation(seed):
    """Random valid file programs: the same transcripts, and every K_t
    within 1e-12 of the one read off the deferred-measurement oracle."""
    program = parse_program(random_program_text(np.random.default_rng(seed)))
    assert validate_locality(program) == []
    got = list(zip(*kraus_stack(program)))
    want = deferred_measurement_kraus(program)
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, k), (_, ref) in zip(got, want):
        assert np.abs(k - ref).max() < 1e-12
    assert len(executor._LAYOUTS) <= executor.LAYOUT_CACHE_SIZE


# Choi matrices

def test_choi_of_identity_program_is_max_entangled_projector():
    p = Program((ExternalWire(qwire(0), Party.ALICE),))
    j = channel_choi(p)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(j, np.outer(phi, phi), atol=1e-14)


def test_kraus_choi_distance_of_empty_program_is_zero():
    p = Program(
        (ExternalWire(qwire(0), Party.ALICE), ExternalWire(qwire(1), Party.BOB))
    )
    d = kraus_choi_distance(kraus_stack(p)[1], qsim.identity(4))
    assert d <= 1e-12


def test_program_choi_matches_bruteforce_cnot_choi():
    p = build_program(NonlocalCUSpec(qsim.X, 1))
    j_prog = channel_choi(p)
    j_ref = choi_of_unitary(qsim.controlled(qsim.X).matrix)
    assert np.linalg.norm(j_prog - j_ref) < 1e-10


@given(st.integers(0, 2**32 - 1))
def test_kraus_choi_distance_matches_bruteforce(seed):
    """Two unitaries: the residual-form distance against the norm of the
    difference of the oracle's dense Choi matrices."""
    rng = np.random.default_rng(seed)
    u, v = qsim.haar_random_unitary(4, rng), qsim.haar_random_unitary(4, rng)
    want = np.linalg.norm(choi_of_unitary(u.matrix) - choi_of_unitary(v.matrix))
    assert abs(kraus_choi_distance([u.matrix], v) - want) < 1e-12


def test_channel_choi_of_x_support():
    p = Program(
        (ExternalWire(qwire(0), Party.ALICE),),
        (ApplyLocal(Party.ALICE, (qwire(0),), qsim.X),),
    )
    j = channel_choi(p)
    # row-major vec(X)/sqrt(2) lives on |01> and |10>
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[1, 2] = expected[2, 1] = expected[2, 2] = 0.5
    assert np.allclose(j, expected, atol=1e-15)


def test_kraus_choi_distance_is_trace_normalized_for_50_random_unitaries():
    """Trace-1 Choi matrices of unitaries U, V are rank-1 projectors, so
    their distance is sqrt(2 - 2 |tr(U†V)|^2 / d^2)."""
    rng = np.random.default_rng(31337)
    for _ in range(50):
        d = int(rng.choice([2, 4]))
        u, v = qsim.haar_random_unitary(d, rng), qsim.haar_random_unitary(d, rng)
        overlap = abs(np.trace(u.matrix.conj().T @ v.matrix)) / d
        want = math.sqrt(max(0.0, 2 - 2 * overlap**2))
        assert abs(kraus_choi_distance([u.matrix], v) - want) < 1e-12
        assert kraus_choi_distance([u.matrix], u) < 1e-12


def test_dense_choi_cap_counts_the_reference_register(qubit_cap):
    """The dense Choi matrix of n external wires is refused when the
    program's widest register plus n reference qubits exceeds the cap."""
    p = build_program(NonlocalCUSpec(qsim.X, 1))  # 2 external, 4 alive at most
    qubit_cap(6)
    assert len(channel_choi(p)) == 16
    qubit_cap(5)
    with pytest.raises(ValueError, match="needs 6 qubits .4 for the program, 2 for the reference.*5-qubit cap"):
        channel_choi(p)


def test_discard_split_does_not_change_channel():
    p = build_program(NonlocalCUSpec(qsim.S, 1))
    trimmed = Program(p.externals, p.instructions[:-1], p.phases[:-1])
    assert np.linalg.norm(channel_choi(p) - channel_choi(trimmed)) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_channel_choi_is_a_choi_matrix_by_construction(k):
    """The dense Choi matrix is checked nowhere in the package: it is the
    Gram matrix V V† of the columns vec(K_t)/sqrt(d), with trace 1 by the
    Kraus pass's trace-preserving check.  Here, for intact and mutated
    programs, it equals the oracle's and is Hermitian, trace 1, PSD and
    read-only."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, 90 + k), k)
    for mutation in (None, *MUTATIONS):
        program = build_program(spec)
        if mutation:
            program = apply_mutation(program, mutation)
        j = channel_choi(program)
        assert j.shape == (4 ** (k + 1),) * 2
        assert np.abs(j - deferred_measurement_choi(program)).max() <= 1e-12
        assert np.abs(j - j.conj().T).max() <= 1e-12
        assert abs(np.trace(j) - 1) <= 1e-12
        assert np.linalg.eigvalsh(j).min() >= -1e-10
        assert not j.flags.writeable


def census_programs():
    """Built programs at k = 1..8, intact and under every mutation, and
    every program file under ``tests/data/`` and ``demos/``."""
    for k in range(1, 9):
        program = build_program(NonlocalCUSpec(qsim.haar_random_unitary(1 << k, 50 + k), k))
        yield f"k={k}", program
        for m in MUTATIONS:
            yield f"k={k} {m}", apply_mutation(program, m)
    root = Path(__file__).resolve().parent.parent
    for path in sorted([*(root / "tests" / "data").glob("*.tg"), *(root / "demos").glob("*.tg")]):
        yield path.name, parse_program(path.read_text())


def test_the_form_carries_the_census():
    """kraus_form carries the census its layout counted once per shape:
    resource_census(p) for every program that validates, on the call that
    lays the shape out and on a warm one; a program that fails validation
    gets no form."""
    executor._LAYOUTS.clear()
    refused = []
    for name, p in census_programs():
        if validate_locality(p):
            refused.append(name)
            with pytest.raises(ValueError, match="locality"):
                kraus_form(p)
            continue
        want = resource_census(p)
        assert kraus_form(p).census == want == kraus_form(p).census, name
    assert refused == ["bad_crossparty.tg"]
