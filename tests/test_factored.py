"""The factored Kraus pass: the slot, its cached coefficients and the
verifier's basis.

A program's slot is the controlled gate whose targets are the trailing
external wires and which nothing else touches; the pass runs without
those wires and gives K_t = X_t ⊗ I + Y_t ⊗ V (see ``telegate.executor``).
These tests pin the dense view of that form against the unfactored pass,
the cache that keeps X_t and Y_t, and the certificate the builder's
programs carry for every gate.
"""

import copy
import pickle
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from oracles import random_program_text
from program_files import FILES, SWAPPED_CNOT, program, without_each_cpauli

from telegate import executor, gatelang, qsim, verifier
from telegate._record import set_field
from telegate.builder import (
    MUTATIONS,
    NonlocalCUSpec,
    apply_mutation,
    build_program,
    build_specification,
)
from telegate.executor import kraus_form, kraus_stack
from telegate.protocol import (
    AllocQubit,
    ApplyControlledLocal,
    ApplyLocal,
    ExternalWire,
    MeasureZ,
    Party,
    Program,
    cwire,
    parse_program,
    qwire,
    validate_locality,
)
from telegate.qsim import UnitaryMatrix
from telegate.verifier import verify_program

CNOT_FILE = Path(__file__).resolve().parent.parent / "demos" / "nonlocal_cnot.tg"
P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def programs(k: int, seed: int):
    """The built program of a Haar-random gate on k targets, intact and
    under every mutation, with its specification."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, seed), k)
    program = build_program(spec)
    yield None, program, build_specification(spec)
    for m in MUTATIONS:
        yield m, apply_mutation(program, m), build_specification(spec)


def unfactored_stack(monkeypatch, p):
    """The Kraus stack of the unfactored pass, which runs every external
    wire through the walk (the pass before slots were found)."""
    with monkeypatch.context() as patch:
        patch.setattr(executor, "_slot", lambda p: None)
        executor._LAYOUTS.clear()
        transcripts, ops = kraus_stack(p)
    executor._LAYOUTS.clear()
    return transcripts, ops


@pytest.mark.parametrize("k", range(1, 9))
def test_dense_view_equals_the_unfactored_pass(monkeypatch, k):
    for mutation, program, _ in programs(k, 200 + k):
        want = unfactored_stack(monkeypatch, program)
        got = kraus_stack(program)
        assert (executor._layout(program).slot is None) == (mutation == "drop-cgate")
        assert got[0] == want[0], mutation
        assert got[1].shape == want[1].shape
        assert np.abs(got[1] - want[1]).max() <= 1e-15, mutation


def test_dense_view_of_a_program_file(monkeypatch):
    program = parse_program(CNOT_FILE.read_text())
    assert executor._layout(program).slot is not None
    want = unfactored_stack(monkeypatch, program)
    got = kraus_stack(program)
    assert got[0] == want[0]
    assert np.abs(got[1] - want[1]).max() <= 1e-15


def layout_programs():
    """``(label, program)``: the built programs at k = 1..8, intact and
    under every mutation, and every valid program file of ``tests/data``
    and ``demos``."""
    for k in range(1, 9):
        for mutation, p, _ in programs(k, 880 + k):
            yield f"k{k}/{mutation or 'intact'}", p
    tests = Path(__file__).resolve().parent
    for path in sorted([*(tests / "data").glob("*.tg"), *(tests.parent / "demos").glob("*.tg")]):
        p = parse_program(path.read_text())
        if not validate_locality(p):
            yield path.name, p


def test_a_layout_has_two_step_kinds(monkeypatch):
    """Every step tensors fresh qubits, ``(None, j)``, or applies a gate,
    ``(source, perm, inverse, controlled)``, with ``source`` a Pauli name
    or the index of a gate instruction other than the slot: a slot is a
    fresh |0> and a CNOT from its control.  The pass reads every gate
    but the slot's, here with the slot's instruction replaced by one
    that has targets and no gate.  The width the cap counts is the
    register of the unfactored pass, which holds every qubit axis of the
    layout (``order`` less the batch axis)."""
    files = 0
    for label, p in layout_programs():
        files += label.endswith(".tg")
        layout = executor._layout(p)
        with monkeypatch.context() as patch:
            patch.setattr(executor, "_slot", lambda p: None)
            assert layout.width == len(executor._layout(p).order) - 1, label
        for step in layout.steps:
            if step[0] is None:
                assert len(step) == 2 and step[1] in (0, 1, 2), label
                continue
            source, perm, inverse, controlled = step
            assert source in ("X", "Z") or source in layout.gate_at, label
            assert sorted(perm) == list(range(len(perm))), label
            assert [perm[a] for a in inverse] == list(range(len(perm))), label
            assert isinstance(controlled, bool), label
        gates = [i for i, ins in enumerate(p.instructions) if isinstance(ins, (ApplyLocal, ApplyControlledLocal))]
        assert list(layout.gate_at) == [i for i in gates if i != layout.slot], label
        want = executor._coefficients(layout, p.instructions, p.n_external)
        if layout.slot is not None:
            instructions = list(p.instructions)
            instructions[layout.slot] = types.SimpleNamespace(targets=p.instructions[layout.slot].targets)
            got = executor._coefficients(layout, tuple(instructions), p.n_external)
            assert got.tobytes() == want.tobytes(), label
    assert files == 4


@pytest.mark.parametrize("k", range(1, 9))
def test_every_gate_certificate(k):
    """The intact program's cached coefficients are X_t = λ_t P0 and
    Y_t = λ_t P1 with sum |λ_t|^2 = 1, so K_t = λ_t C(V) for every V: it
    implements C(V) whatever gate fills the slot.  Three mutations break
    that, and dropping the controlled gate leaves no slot."""
    for mutation, program, _ in programs(k, 300 + k):
        kraus_form(program)
        layout = executor._LAYOUTS[executor._shape(program)]
        if mutation == "drop-cgate":
            assert layout.slot is None
            continue
        x, y = layout.coeffs[:, 0], layout.coeffs[:, 1]
        lam = x[:, 0, 0]
        holds = (
            np.abs(x - lam[:, None, None] * P0).max() <= 1e-15
            and np.abs(y - lam[:, None, None] * P1).max() <= 1e-15
            and abs(np.vdot(lam, lam).real - 1) <= 1e-15
        )
        assert holds == (mutation is None), mutation


def test_a_non_slot_gate_is_part_of_the_cached_coefficients():
    """Two programs of one shape that differ in a gate outside the slot
    (H for S): each gets coefficients of its own, whichever ran first."""
    text = CNOT_FILE.read_text()
    h, s = parse_program(text), parse_program(text.replace(": H", ": S"))
    assert executor._shape(h) == executor._shape(s)
    want = {}
    for p in (h, s):
        executor._LAYOUTS.clear()
        want[id(p)] = kraus_form(p).coeffs.copy()
    executor._LAYOUTS.clear()
    for p in (h, s, h, s):
        got = kraus_form(p).coeffs
        assert got.tobytes() == want[id(p)].tobytes()
        assert executor._LAYOUTS[executor._shape(p)].gates[-1] is p.instructions[-6].gate
    assert len(executor._LAYOUTS) == 1
    assert want[id(h)].tobytes() != want[id(s)].tobytes()


def grams_read(monkeypatch, program, calls=2):
    """The coefficients and Gram that ``calls`` calls of kraus_form on
    ``program`` check, one pair per call: the Gram handed to
    ``executor._checked``, and the coefficients of the call's pass, or
    the cached ones that the call reads when it runs none.  The first
    call computes them, and later ones read them from the cache if it
    keeps them."""
    seen, passes = [], []
    checked, coefficients = executor._checked, executor._coefficients

    def read(layout, g, *basis):
        seen.append((passes.pop() if passes else layout.coeffs, g))
        return checked(layout, g, *basis)

    with monkeypatch.context() as patch:
        patch.setattr(executor, "_coefficients", lambda *a: passes.append(coefficients(*a)) or passes[-1])
        patch.setattr(executor, "_checked", read)
        forms = [kraus_form(program) for _ in range(calls)]
    return forms, seen


def assert_gram_of_the_coefficients(monkeypatch, program):
    """The Gram that kraus_form reads for ``program`` is <C_tb, C_tc>,
    computed here one transcript and one pair of basis terms at a time,
    with one row per transcript of the layout (dust included), within
    1e-15 of the mass |K_t|_F^2 it sums to (the coefficients of a
    slot-free program hold up to d / T of it), on the call that computes
    it and on the one after it."""
    forms, seen = grams_read(monkeypatch, program)
    for form, (coeffs, gram) in zip(forms, seen):
        t, b = coeffs.shape[:2]
        assert gram.shape == (t, b, b) and t == len(executor._layout(program).transcripts)
        want = np.array([[[np.vdot(coeffs[i, x], coeffs[i, y]) for y in range(b)]
                          for x in range(b)] for i in range(t)])
        assert np.abs(gram - want).max() <= 1e-15 * max(1.0, np.abs(want).max())
        assert len(form.coeffs) == len(form.transcripts) <= t


@pytest.mark.parametrize("k", range(1, 9))
def test_pairs_are_the_column_grams_of_the_coefficients(monkeypatch, k):
    """The pairs <C_tb, C_tc> that kraus_form keeps, the Gram of the
    coefficients, of built programs, intact and under every mutation:
    cached, and uncached for slot-free programs from k = 5 on."""
    executor._LAYOUTS.clear()
    for _, program, _ in programs(k, 700 + k):
        assert_gram_of_the_coefficients(monkeypatch, program)


def test_pairs_of_random_programs_are_the_column_grams(monkeypatch):
    """The Gram of random valid file programs, with and without a slot,
    whose coefficients need not be symmetric or real."""
    rng = np.random.default_rng(8)
    executor._LAYOUTS.clear()
    for _ in range(100):
        assert_gram_of_the_coefficients(monkeypatch, parse_program(random_program_text(rng)))


@pytest.mark.parametrize("text", [
    "ext A q0\nalloc A q1 = 0\nmeasz A q1 -> c1\n",
    "ext A q0\next B q1\nalloc B q2 = 0\ncgate B q2 -> q1 : X\n"
    "alloc A q3 = 0\nmeasz A q3 -> c3\nmeasz B q2 -> c2\n",
])
def test_pairs_drop_with_their_dust_transcript(monkeypatch, text):
    """A fresh |0> measured can only read 0: the transcripts that read 1
    are dust, with a zero row of the Gram, and the form keeps the one
    transcript whose row is not, on the trivial basis and on a slot's
    {I, X}, fresh and cached."""
    program = parse_program(text)
    executor._LAYOUTS.clear()
    assert_gram_of_the_coefficients(monkeypatch, program)
    forms, seen = grams_read(monkeypatch, program)
    for form, (_, gram) in zip(forms, seen):
        transcripts = executor._layout(program).transcripts
        kept = [t for t, g in enumerate(gram) if np.abs(g).max() > 0.0]
        assert len(gram) == len(transcripts) > 1 and len(kept) == 1
        assert form.transcripts == [transcripts[kept[0]]] and len(form.coeffs) == 1
    assert executor._LAYOUTS[executor._shape(program)].gram is seen[1][1]


def test_cached_coefficients_are_read_only_and_bounded():
    """The cache keeps coefficients only up to BLOCK_CACHE_ENTRIES complex
    entries, with their (T, B, B) Gram, here never larger (B^2 entries a
    transcript against B r^2; see test_a_cache_entry_is_bounded for the
    whole entry): a slot-free k=4 program has 4 * 32 * 32 coefficients
    and keeps them, one at k=5 has 4 * 64 * 64 and does not; a slotted
    k=8 program has 4 * 2 * 2 * 2."""
    assert executor.BLOCK_CACHE_ENTRIES * 16 == 64 * 1024
    executor._LAYOUTS.clear()
    for k, kept in ((4, True), (5, False), (8, True)):
        program = build_program(NonlocalCUSpec(qsim.identity(1 << k), k))
        if k != 8:
            program = apply_mutation(program, "drop-cgate")
        kraus_form(program)
        layout = executor._LAYOUTS[executor._shape(program)]
        assert (layout.coeffs is not None) == kept == (layout.gram is not None), k
        if kept:
            t, b = layout.coeffs.shape[:2]
            assert layout.coeffs.size <= executor.BLOCK_CACHE_ENTRIES
            assert layout.gram.shape == (t, b, b) and layout.gram.size <= layout.coeffs.size
            assert not (layout.coeffs.flags.writeable or layout.gram.flags.writeable)


def test_a_slot_free_layout_keeps_a_scalar_gram():
    """A program without a slot has the basis {1}: its layout keeps the
    (T, 1, 1) Gram |K_t|_F^2 beside the coefficients, and no other array:
    no rows or pairs, which only the basis {I, V} reads."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(4, 6), 2)
    mutant = apply_mutation(build_program(spec), "drop-cgate")
    executor._LAYOUTS.clear()
    form = kraus_form(mutant)
    layout = executor._LAYOUTS[executor._shape(mutant)]
    assert form.basis is executor.TRIVIAL_BASIS and layout.gram.shape == (4, 1, 1)
    arrays = [f for f in layout._fields if isinstance(getattr(layout, f), np.ndarray)]
    assert arrays == ["coeffs", "gram"]
    assert form.rows is form.pairs is layout.rows is layout.pairs is None


def wide_program(measured=9):
    """A program with one slot, r = 2 and 2^(measured + 1) transcripts:
    by default 1024, whose (1024, 2, 2, 2) coefficients are too large to
    cache."""
    measured = range(2, 2 + measured)
    text = "ext A q0\next B q1\n" + "".join(
        f"alloc A q{i} = 0\ngate A q{i} : H\nmeasz A q{i} -> c{i}\n" for i in measured
    ) + "alloc B q11 = 0\ngate B q11 : H\ncgate B q11 -> q1 : X\nmeasz B q11 -> c11\n"
    return parse_program(text)


def test_a_second_call_returns_the_cached_arrays(monkeypatch):
    """The slot-free k = 4 drop-cgate mutant, with 4096 coefficients and
    a Gram of 4, runs its pass once: a second call runs none, returns
    the cached, read-only coefficients themselves and checks them with
    the cached Gram.  The 1024-transcript program, with 8192
    coefficients, stays uncached and runs its pass on every call."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(16, 5), 4)
    mutant = apply_mutation(build_program(spec), "drop-cgate")
    wide = wide_program()
    executor._LAYOUTS.clear()
    first = kraus_form(mutant)
    layout = executor._LAYOUTS[executor._shape(mutant)]
    assert (layout.coeffs.size, layout.gram.size) == (4096, 4)
    kraus_form(wide)
    assert executor._LAYOUTS[executor._shape(wide)].coeffs is None
    passes = []
    coefficients = executor._coefficients
    monkeypatch.setattr(executor, "_coefficients",
                        lambda *args: passes.append(args[0]) or coefficients(*args))
    (second,), ((_, gram),) = grams_read(monkeypatch, mutant, calls=1)
    assert passes == []
    assert second.coeffs is layout.coeffs and gram is layout.gram
    assert second.coeffs.tobytes() == first.coeffs.tobytes()
    assert not (second.coeffs.flags.writeable or gram.flags.writeable)
    again = kraus_form(wide)
    assert len(passes) == 1 and again.coeffs.flags.writeable
    assert executor._LAYOUTS[executor._shape(wide)].coeffs is None


def report_by_basis(monkeypatch, basis, p, spec, **kwargs):
    """The report of ``p`` against ``spec`` over ``basis``: "own" is the
    verifier's rule, {I, V} wherever the spec splits, and "trivial" is
    {1} for every spec, forced by patching that one rule,
    ``verifier._splits``, to say no.  The patched rule must have been
    asked, so that a patch that no longer takes effect cannot leave a
    basis compared with itself."""
    if basis == "own":
        return verify_program(p, spec, **kwargs)
    asked = []
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_splits", lambda form, s: asked.append(s) or False)
        report = verify_program(p, spec, **kwargs)
    assert asked, "verify_program did not ask the basis rule"
    return report


def assert_same_report(got, want, atol=1e-14):
    """Verdict, census and transcripts equal, every float within ``atol``."""
    assert (got.verdict, got.census) == (want.verdict, want.census)
    assert [b.transcript for b in got.branches] == [b.transcript for b in want.branches]
    assert abs(got.choi_dist - want.choi_dist) <= atol
    for g, w in zip(got.branches, want.branches):
        assert abs(g.probability - w.probability) <= atol
        assert abs(g.max_infidelity - w.max_infidelity) <= atol


def test_the_factored_route_reads_uncached_coefficients(monkeypatch):
    """The basis {I, V} reads only the form that kraus_form returns,
    whether its coefficients are cached or not: here a program with 1024
    transcripts, whose coefficients are too large to cache, verified
    against controlled-X, its own slot's controlled(V), gives the report
    of the basis {1}."""
    wide = wide_program()
    assert len(executor._layout(wide).transcripts) == 1024
    cx = qsim.controlled(qsim.X)
    executor._LAYOUTS.clear()
    assert verifier._splits(kraus_form(wide), cx)
    own = report_by_basis(monkeypatch, "own", wide, cx)
    trivial = report_by_basis(monkeypatch, "trivial", wide, cx)
    assert len(own.branches) == 1024
    assert_same_report(own, trivial)
    layout = executor._LAYOUTS[executor._shape(wide)]
    assert layout.coeffs is layout.rows is layout.pairs is None
    assert kraus_form(wide).pairs.shape == (2, 1025, 2, 2, 2)  # built on every call


@pytest.mark.parametrize("k", range(1, 7))
def test_routes_agree_on_built_programs(monkeypatch, k):
    """Both bases give one report within 1e-14, intact and under every
    mutation, with Haar probes; the rule picks {I, V} for every built
    program with a slot, at every size."""
    for mutation, program, spec in programs(k, 600 + k):
        assert verifier._splits(kraus_form(program), spec) == (mutation != "drop-cgate")
        probes = spec.dim + 5
        own = report_by_basis(monkeypatch, "own", program, spec, probes=probes, seed=k)
        trivial = report_by_basis(monkeypatch, "trivial", program, spec, probes=probes, seed=k)
        assert_same_report(own, trivial)
        assert (trivial.verdict == "pass") == (mutation is None), mutation


def entrywise_split(form, s):
    """The basis rule of the verifier without provenance, written out
    here: the basis {I, V} exactly when the program has a slot and one
    other external (r = 2) and s is diag(I, V) entry for entry."""
    basis = form.basis
    if len(basis) != 2 or form.coeffs.shape[-1] != 2:
        return False
    want = np.zeros_like(s)
    m = basis.shape[-1]
    want[:m, :m], want[m:, m:] = basis
    return np.array_equal(s, want)


@pytest.mark.parametrize("k", range(1, 9))
def test_provenance_gives_the_entrywise_route(k):
    """A built spec records its gate, and the basis rule takes it on that
    record; the basis is the one the entry-for-entry comparison gives,
    intact and under every mutation.  Specs without the slot gate's
    record take the comparison and keep their basis: an equal copy, the
    spec of another gate object with the same entries, and the spec with
    one entry one ulp off, which does not split."""
    gate = qsim.haar_random_unitary(1 << k, 900 + k)
    spec = NonlocalCUSpec(gate, k)
    built, u = build_program(spec), build_specification(spec)
    moved = u.matrix.copy()
    moved[-1, -1] = moved[-1, -1].real * (1 + 2**-52) + 1j * moved[-1, -1].imag
    off = UnitaryMatrix(moved)
    assert not np.array_equal(off.matrix, u.matrix)
    for mutation in (None, *MUTATIONS):
        program = apply_mutation(built, mutation) if mutation else built
        form = kraus_form(program)
        assert u._controls is gate.matrix and (form.v is gate.matrix) == (mutation != "drop-cgate")
        want = entrywise_split(form, u.matrix)
        assert want == (mutation != "drop-cgate")
        assert verifier._splits(form, u) == want, mutation
        for other in (UnitaryMatrix(u.matrix), qsim.controlled(UnitaryMatrix(gate.matrix))):
            assert other._controls is not gate.matrix and other == u
            assert verifier._splits(form, other) == want, mutation
        assert not verifier._splits(form, off) and not entrywise_split(form, off.matrix)


def test_the_route_reads_the_record_before_the_entries():
    """The record alone decides for a spec that carries the slot gate's
    matrix: a spec that claims controlled(V) but holds other entries
    (never made by the package) takes the basis {I, V} unread, while
    the same entries without the record are compared and refused."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(16, 4), 4)
    form = kraus_form(build_program(spec))
    wrong = qsim.identity(32).matrix
    claims = qsim.controlled(spec.c)
    set_field(claims, "matrix", wrong)
    assert claims._controls is form.v and verifier._splits(form, claims)
    assert not verifier._splits(form, UnitaryMatrix(wrong))


def test_an_equal_copy_of_a_built_spec_is_compared_entry_for_entry(monkeypatch):
    """The basis rule takes a built spec on its record without filling
    its matrix; a copy or pickle of it, which has no record, is compared
    entry for entry, takes the same basis and gives the same report."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(16, 21), 4)
    program = build_program(spec)
    form = kraus_form(program)
    built = []
    block = qsim._controlled_block
    monkeypatch.setattr(qsim, "_controlled_block", lambda u: built.append(u) or block(u))
    u = build_specification(spec)
    assert verifier._splits(form, u) and built == []
    want = verify_program(program, u).to_json()
    assert built == []
    for twin in (copy.copy(u), pickle.loads(pickle.dumps(u))):
        assert twin._controls is None and twin == u
        assert verifier._splits(form, twin)
        assert verify_program(program, twin).to_json() == want


def test_routes_agree_where_the_pairs_are_complex(monkeypatch):
    """The slot's control picks up a phase after the slot (S, then H) and
    is measured, so X_t = x_t I and Y_t = y_t I with conj(x_t) y_t
    imaginary, and V = T has a complex diagonal: the norms over {I, V}
    read the off-diagonal column pairs <X_t e_i, Y_t e_i>.  The program
    fails against controlled(T), with the same report on both bases."""
    program = parse_program(
        "ext A q0\next B q1\nalloc B q2 = 0\ngate B q2 : H\ncgate B q2 -> q1 : T\n"
        "gate B q2 : S\ngate B q2 : H\nmeasz B q2 -> c2\n"
    )
    spec = qsim.controlled(qsim.T)
    form = kraus_form(program)
    assert verifier._splits(form, spec)
    columns = form.coeffs.transpose(0, 3, 1, 2)  # [t, i, b, x] = C_tb[x, i]
    assert np.abs((columns[:, :, 0].conj() * columns[:, :, 1]).sum(axis=-1).imag).min() > 0.1
    own = report_by_basis(monkeypatch, "own", program, spec, probes=9, seed=2)
    trivial = report_by_basis(monkeypatch, "trivial", program, spec, probes=9, seed=2)
    assert_same_report(own, trivial)
    assert trivial.verdict == "fail"


def test_routes_agree_on_the_mirrored_cnot(monkeypatch):
    """A program the builder does not make, with the control at Bob and
    the target at Alice (``tests/data/mirror_cnot.tg``): over {I, X},
    where CNOT splits as controlled(X), it and its mutants without a
    cpauli give the report of the basis {1} within 1e-14; the swapped
    CNOT does not split."""
    spec, intact = FILES["mirror_cnot.tg"][0], program("mirror_cnot.tg")
    cases = [(intact, spec), (intact, SWAPPED_CNOT)]
    cases += [(p, spec) for _, p in without_each_cpauli("mirror_cnot.tg")]
    for p, u in cases:
        assert verifier._splits(kraus_form(p), u) == (u is spec)
        own = report_by_basis(monkeypatch, "own", p, u, probes=9, seed=3)
        trivial = report_by_basis(monkeypatch, "trivial", p, u, probes=9, seed=3)
        assert_same_report(own, trivial)
        assert trivial.passed == (p is intact and u is spec)


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_routes_agree_on_a_nearly_unitary_gate(monkeypatch, mutation):
    """A gate the gate language admits as unitary within 1e-10: both
    bases certify it, and give one report within 1e-14 on it and its
    mutants (some of which also pass, since the gate is nearly I)."""
    gate = gatelang.evaluate(gatelang.parse("[[1.00000000004,0],[0,1]]"))
    spec = NonlocalCUSpec(gate, 1)
    program, u = build_program(spec), build_specification(spec)
    if mutation:
        program = apply_mutation(program, mutation)
    assert verifier._splits(kraus_form(program), u) == (mutation != "drop-cgate")
    own = report_by_basis(monkeypatch, "own", program, u)
    trivial = report_by_basis(monkeypatch, "trivial", program, u)
    assert_same_report(own, trivial)
    assert mutation or trivial.verdict == "pass"


def test_random_slotted_programs_verify_as_unfactored(monkeypatch):
    """Random valid file programs that have a slot (the control may be
    an external wire or an internal one): against the identity, a
    controlled Haar gate, a block-diagonal Haar spec and, where its
    dimension fits, controlled(V) of the program's own slot gate V, the
    report over each basis equals the unfactored pass's within 1e-14.
    Only the last spec splits over {I, V}; the others, which are not the
    slot's controlled(V), take {1} either way."""
    rng = np.random.default_rng(6)
    splits = set()
    slotted = [p for p in (parse_program(random_program_text(rng)) for _ in range(600))
               if executor._slot(p) is not None]
    assert len(slotted) >= 20
    for p in slotted:
        d = 1 << p.n_external
        half = max(1, d // 2)
        block = np.zeros((d, d), dtype=complex)
        if d > 1:
            block[:half, :half] = qsim.haar_random_unitary(half, rng).matrix
            block[half:, half:] = qsim.haar_random_unitary(half, rng).matrix
        own = qsim.controlled(p.instructions[executor._slot(p)].gate)
        for spec in (qsim.identity(d), qsim.controlled(qsim.haar_random_unitary(half, rng)),
                     UnitaryMatrix(block), own):
            if spec.dim != d:
                continue
            executor._LAYOUTS.clear()
            split = verifier._splits(kraus_form(p), spec)
            assert split == (spec is own)
            splits.add(split)
            got = {basis: report_by_basis(monkeypatch, basis, p, spec, probes=d + 3, seed=1)
                   for basis in ("own", "trivial")}
            with monkeypatch.context() as patch:
                patch.setattr(executor, "_slot", lambda p: None)
                executor._LAYOUTS.clear()
                want = verify_program(p, spec, probes=d + 3, seed=1)
            executor._LAYOUTS.clear()
            for report in got.values():
                assert_same_report(report, want)
    assert splits == {False, True}


def test_the_trivial_basis_takes_a_spec_that_does_not_split(monkeypatch):
    """Only the slot's controlled(V), entry for entry, takes the basis
    {I, V}: a spec with nonzero off-diagonal blocks, a block-diagonal spec
    other than controlled(V) and CNOT with one entry moved by one ulp are
    compared over {1}, and give the report the unfactored pass gives."""
    program = parse_program(CNOT_FILE.read_text())
    swap = gatelang.evaluate(gatelang.parse("[[1,0,0,0],[0,0,1,0],[0,1,0,0],[0,0,0,1]]"))
    cnot = build_specification(NonlocalCUSpec(qsim.X, 1))
    diag = np.zeros((4, 4), dtype=complex)
    diag[:2, :2], diag[2:, 2:] = qsim.H.matrix, qsim.X.matrix
    moved = cnot.matrix.copy()
    moved[3, 2] = np.nextafter(1.0, 2.0)
    assert verifier._splits(kraus_form(program), cnot)  # controlled(V), V = X
    specs = ((swap, "fail"), (UnitaryMatrix(diag), "fail"), (UnitaryMatrix(moved), "pass"))
    for spec, verdict in specs:
        assert not verifier._splits(kraus_form(program), spec)
        report = verify_program(program, spec)
        assert report.verdict == verdict
        with monkeypatch.context() as patch:
            patch.setattr(executor, "_slot", lambda p: None)
            executor._LAYOUTS.clear()
            want = verify_program(program, spec)
        executor._LAYOUTS.clear()
        assert_same_report(report, want)
        if spec is swap:  # branch for branch, bit for bit
            assert report.branches == want.branches


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-6])
def test_a_dependent_basis_leaves_no_floor(monkeypatch, eps):
    """With V = e^{iφ} I, the factored basis {I, V} is dependent, and a
    channel equal to the spec has O(1) coefficients on I and V that
    cancel: here the slot never fires (its control stays |0>) and q0 gets
    the phase instead.  The distance still tracks a phase error eps,
    sqrt(2) |sin(eps/2)|, with no floor at sqrt(1e-16), over {I, V} and
    over {1}."""
    phi = 0.7
    q0, q1, q2 = qwire(0), qwire(1), qwire(2)
    v = UnitaryMatrix(np.exp(1j * phi) * np.eye(2))
    program = Program(
        (ExternalWire(q0, Party.ALICE), ExternalWire(q1, Party.BOB)),
        (
            AllocQubit(Party.BOB, q2, 0),
            ApplyLocal(Party.ALICE, (q0,), qsim.phase(phi + eps)),
            ApplyControlledLocal(Party.BOB, q2, (q1,), v),
            MeasureZ(Party.BOB, q2, cwire(1)),
        ),
    )
    spec = qsim.controlled(v)
    assert executor._layout(program).slot == 2
    want = np.sqrt(2) * abs(np.sin(eps / 2))
    assert verifier._splits(kraus_form(program), spec)
    for basis in ("own", "trivial"):
        got = report_by_basis(monkeypatch, basis, program, spec).choi_dist
        assert abs(got - want) <= 1e-6 * want + 1e-15, (basis, got, want)


def test_threads_share_the_cache(monkeypatch):
    """Four threads verify k = 1..6, intact and mutated, five times over,
    with the cache cut to two shapes so that entries are evicted while
    other threads read them, over {I, V} and, for the drop-cgate mutants,
    over {1}, where each k = 4..6 case runs twice in a row so that its
    second call can hit a warm entry: every report is the serial run's,
    byte for byte."""
    monkeypatch.setattr(executor, "LAYOUT_CACHE_SIZE", 2)
    cases = [(p, u) for k in (1, 2, 3) for _, p, u in programs(k, 400 + k)]
    cases += [(p, u) for k in (4, 5, 6) for _, p, u in programs(k, 400 + k) for _ in range(2)]
    executor._LAYOUTS.clear()
    want = [verify_program(p, u).to_json() for p, u in cases]
    errors, results = [], []

    def work():
        try:
            got = [[verify_program(p, u).to_json() for p, u in cases] for _ in range(5)]
            results.append(got)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(results) == 4
    for got in results:
        assert got == [want] * 5
    assert len(executor._LAYOUTS) <= 2


# The operands of the basis {I, V}: the rows z = [P0, P1; X_t, Y_t] and
# their column pair products, cached with the coefficients.

def cold_json(p, u, **kwargs):
    """The report of ``p`` against ``u`` with an empty cache."""
    executor._LAYOUTS.clear()
    return verify_program(p, u, **kwargs).to_json()


@pytest.mark.parametrize("k", range(4, 9))
def test_warm_reports_equal_cold_reports(k):
    """A warm call, which reads the cached rows and pairs, gives the cold
    call's report bit for bit, intact and under every mutation, against
    the spec the cold call read and against a copy of it, which has no
    record and is compared entry for entry."""
    for mutation, program, spec in programs(k, 800 + k):
        want = cold_json(program, spec, probes=40, seed=k)
        form = kraus_form(program)
        assert (form.rows is None) == (mutation == "drop-cgate")
        assert verify_program(program, spec, probes=40, seed=k).to_json() == want, mutation
        assert verify_program(program, copy.copy(spec), probes=40, seed=k).to_json() == want


def test_operands_are_the_rows_and_their_column_products():
    """Every built program with a slot from k = 1 on carries, on every
    call, the rows [P0, P1; X_t, Y_t] and the products
    [0, u, i, b, c] = <z_ub e_i, z_uc e_i> and [1, u, i, b, c] =
    δ_bi z_uc[i, i], computed here entry by entry; read-only, and on a
    warm call the very arrays the layout keeps."""
    for k in (1, 4, 8):
        executor._LAYOUTS.clear()
        for mutation, program, _ in programs(k, 820 + k):
            if mutation == "drop-cgate":
                continue
            cold, warm = kraus_form(program), kraus_form(program)
            layout = executor._LAYOUTS[executor._shape(program)]
            assert warm.rows is layout.rows and warm.pairs is layout.pairs
            for form in (cold, warm):
                z = form.rows
                assert np.array_equal(z[0], [P0, P1]) and np.array_equal(z[1:], form.coeffs)
                want = np.zeros((2,) + z.shape, dtype=complex)
                for u, i, b, c in np.ndindex(z.shape):
                    want[0, u, i, b, c] = np.vdot(z[u, b][:, i], z[u, c][:, i])
                    want[1, u, i, b, c] = (b == i) * z[u, c, i, i]
                assert form.pairs.shape == (2, 1 + len(form.coeffs), 2, 2, 2)
                assert np.abs(form.pairs - want).max() <= 1e-15, (k, mutation)
                assert not (z.flags.writeable or form.pairs.flags.writeable)


def delta_pairs(z):
    """The column pairs of the rows z = [P0, P1; X_t, Y_t] written with
    z_0b e_i = δ_bi e_i: [1, u, i, b, c] = δ_bi z_uc[i, i], taken from the
    diagonals rather than summed."""
    pairs = np.zeros((2,) + z.shape, dtype=complex)
    pairs[0] = np.einsum("ubxi,ucxi->uibc", z.conj(), z)
    diagonals = z.diagonal(axis1=2, axis2=3)  # [u, c, i] = z_uc[i, i]
    for i in (0, 1):
        pairs[1, :, i, i] = diagonals[..., i]
    return pairs


@pytest.mark.parametrize("k", range(1, 9))
def test_column_pairs_over_the_own_basis_are_the_delta_form(k):
    """Over {I, V} the generic products of column_pairs equal, exactly,
    the products written with z_0b e_i = δ_bi e_i, for built programs
    intact and under every mutation that keeps the slot."""
    for mutation, program, _ in programs(k, 840 + k):
        form = kraus_form(program)
        if mutation == "drop-cgate":
            assert form.rows is form.pairs is None
            continue
        assert np.array_equal(form.pairs, delta_pairs(form.rows)), mutation


def trivial_rows(form, spec):
    """The rows [S; K_t] of ``form`` against ``spec`` over {1}."""
    return np.concatenate((spec.matrix[None], executor.dense(form)))[:, None]


@pytest.mark.parametrize("k", range(1, 5))
def test_column_pairs_over_the_trivial_basis_are_the_column_products(k):
    """Over {1} the pairs of the rows [S; K_t] are |Z_u e_i|^2 and
    <S e_i, Z_u e_i>, computed here column by column, for built programs
    intact and mutated (their specs split or not: the rows are the same)."""
    for mutation, program, spec in programs(k, 850 + k):
        z = trivial_rows(kraus_form(program), spec)[:, 0]
        got = executor.column_pairs(z[:, None])
        assert got.shape == (2, len(z), spec.dim, 1, 1)
        for u, i in np.ndindex(len(z), spec.dim):
            norm2, overlap = np.vdot(z[u][:, i], z[u][:, i]), np.vdot(z[0][:, i], z[u][:, i])
            assert abs(got[0, u, i, 0, 0] - norm2) <= 1e-15, (mutation, u, i)
            assert abs(got[1, u, i, 0, 0] - overlap) <= 1e-15, (mutation, u, i)


@pytest.mark.parametrize("k", range(1, 9))
def test_the_form_carries_its_basis_column_grams(monkeypatch, k):
    """kraus_form computes the column Grams G_q[b, c] = <M_b e_q, M_c e_q>
    of its basis once, within rounding of their sums here, and their sum,
    the metric, which it hands to _checked; the form carries both, and
    over {1} they are the frozen TRIVIAL_GRAMS and TRIVIAL_METRIC."""
    seen = []
    checked = executor._checked
    monkeypatch.setattr(executor, "_checked",
                        lambda layout, g, metric, d: seen.append(metric) or checked(layout, g, metric, d))
    for mutation, program, _ in programs(k, 860 + k):
        form = kraus_form(program)
        assert seen.pop() is form.metric
        if mutation == "drop-cgate":
            assert form.grams is executor.TRIVIAL_GRAMS and form.metric is executor.TRIVIAL_METRIC
            assert not (form.grams.flags.writeable or form.metric.flags.writeable)
            continue
        m = form.basis.shape[-1]
        want = np.array([[[np.vdot(form.basis[b][:, q], form.basis[c][:, q]) for c in (0, 1)]
                          for b in (0, 1)] for q in range(m)])
        assert form.grams.shape == (m, 2, 2)  # each entry a sum of m products: m ulps
        assert np.abs(form.grams - want).max() <= m * 2**-52 * max(1.0, np.abs(want).max())
        assert np.array_equal(form.metric, form.grams.sum(axis=0))


@pytest.mark.parametrize("k", range(1, 9))
def test_no_size_threshold(monkeypatch, k):
    """Every spec that splits is evaluated over {I, V} at every size, and
    the rows [S; K_t] are paired per call only for one that does not:
    with no Haar probes, the evidence pairs nothing over {I, V} and the
    d columns of the 1 + T rows over {1}."""
    paired = []
    pairs = executor.column_pairs
    monkeypatch.setattr(verifier, "column_pairs", lambda z: paired.append(z.shape) or pairs(z))
    for mutation, program, spec in programs(k, 870 + k):
        form = kraus_form(program)
        verifier.basis_evidence(form, spec)
        d = spec.dim
        want = [] if mutation != "drop-cgate" else [(1 + len(form.coeffs), 1, d, d)]
        assert paired == want, mutation
        paired.clear()


def test_a_non_slot_gate_gives_new_operands(monkeypatch):
    """Two programs of one shape that differ in a gate outside the slot
    (H for S), over {I, V}: each gets operands of its own, not the
    other's, whichever ran first, and its cold report."""
    text = CNOT_FILE.read_text()
    h, s = parse_program(text), parse_program(text.replace(": H", ": S"))
    cx = qsim.controlled(qsim.X)
    assert all(verifier._splits(kraus_form(p), cx) for p in (h, s))
    want = {id(p): (cold_json(p, cx), kraus_form(p).pairs.tobytes()) for p in (h, s)}
    assert want[id(h)][1] != want[id(s)][1]
    executor._LAYOUTS.clear()
    for p in (h, s, h, s, s, h):
        assert verify_program(p, cx).to_json() == want[id(p)][0]
        assert kraus_form(p).pairs.tobytes() == want[id(p)][1]


def test_operands_drop_dust_rows_as_the_coefficients_do():
    """A fresh |0> measured can only read 0: the dust transcripts lose
    their rows and pairs exactly as _checked drops their coefficients,
    and controlled(V)'s row 0 stays, fresh and cached."""
    program = parse_program(
        "ext A q0\next B q1\nalloc B q2 = 0\ncgate B q2 -> q1 : X\n"
        "alloc A q3 = 0\nmeasz A q3 -> c3\nmeasz B q2 -> c2\n"
    )
    executor._LAYOUTS.clear()
    for _ in range(2):
        form = kraus_form(program)
        layout = executor._LAYOUTS[executor._shape(program)]
        transcripts, keep = executor._checked(layout, layout.gram, form.metric, 4)
        assert keep is not None and sum(keep) == 1 < len(keep)
        assert form.transcripts == transcripts
        rows = [0] + [1 + t for t, kept in enumerate(keep) if kept]
        assert np.array_equal(form.coeffs, layout.coeffs[keep])
        assert np.array_equal(form.rows, layout.rows[rows])
        assert np.array_equal(form.pairs, layout.pairs[:, rows])
        assert np.array_equal(form.rows[1:], form.coeffs)


DUST_FREE = "ext A q0\nalloc A q1 = 0\nmeasz A q1 -> c1\n"
DUST_SLOT = ("ext A q0\next B q1\nalloc B q2 = 0\ncgate B q2 -> q1 : X\n"
             "alloc A q3 = 0\nmeasz A q3 -> c3\nmeasz B q2 -> c2\n")
# 2^11 transcripts, all but one dust: coefficients too large to cache.
DUST_WIDE = "ext A q0\n" + "".join(f"alloc A q{i} = 0\nmeasz A q{i} -> c{i}\n" for i in range(1, 12))


@pytest.mark.parametrize("make", [
    lambda: build_program(NonlocalCUSpec(qsim.haar_random_unitary(2, 7), 1)),
    lambda: apply_mutation(build_program(NonlocalCUSpec(qsim.haar_random_unitary(2, 7), 1)), "drop-cgate"),
    lambda: wide_program(),
    lambda: parse_program(DUST_FREE),
    lambda: parse_program(DUST_SLOT),
    lambda: parse_program(DUST_WIDE),
], ids=["slot", "slot-free", "slot-uncached", "dust-slot-free", "dust-slot", "dust-uncached"])
def test_writing_into_a_form_changes_no_later_form(make):
    """A form's rows and pairs are read-only, and its coefficients exactly
    when the cache keeps them, also after a dust drop copied them; and
    writing into every array of a form that is writeable changes no later
    call's form, cold or warm, with dust or without, over {I, V} and over
    {1}, cached or not."""
    program = make()

    def arrays(form):
        return [(f, a) for f in form._fields if isinstance(a := getattr(form, f), np.ndarray)]

    executor._LAYOUTS.clear()
    want = [(f, a.tobytes()) for f, a in arrays(kraus_form(program))]
    executor._LAYOUTS.clear()
    for _ in ("cold", "warm", "warm"):
        form = kraus_form(program)
        assert [(f, a.tobytes()) for f, a in arrays(form)] == want
        layout = executor._LAYOUTS[executor._shape(program)]
        assert form.coeffs.flags.writeable == (layout.coeffs is None)
        assert form.rows is None or not (form.rows.flags.writeable or form.pairs.flags.writeable)
        for _, a in arrays(form):
            if a.flags.writeable:
                a[...] = 99


def test_no_operands_without_a_slot_and_r_2():
    """Slot-free forms (drop-cgate mutants, the teledata CNOT) and a slot
    that leaves r = 4 (two targets on one control) build no operands, and
    their layouts keep none."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(4, 9), 2)
    cases = [apply_mutation(build_program(spec), "drop-cgate"),
             program("teledata_cnot.tg"), program("cat_two_targets.tg")]
    executor._LAYOUTS.clear()
    for p in cases:
        for _ in range(2):
            form = kraus_form(p)
            layout = executor._LAYOUTS[executor._shape(p)]
            assert form.rows is form.pairs is layout.rows is layout.pairs is None
    assert kraus_form(cases[2]).coeffs.shape[1:] == (2, 4, 4)


def cached_bytes(layout) -> int:
    return sum(a.nbytes for a in (layout.coeffs, layout.gram, layout.rows, layout.pairs)
               if a is not None)


def test_a_cache_entry_is_bounded():
    """An entry keeps at most 4.5 BLOCK_CACHE_ENTRIES + 24 complex entries
    (288.375 KiB), the cache LAYOUT_CACHE_SIZE times that: reached by a
    slot with r = 2 and 512 transcripts, whose 4096 coefficients come
    with a Gram of 2048 entries, 4104 rows and 8208 pairs; every built
    program, intact and mutated, stays within it."""
    bound = (9 * executor.BLOCK_CACHE_ENTRIES // 2 + 24) * 16
    assert bound == 295296 and executor.LAYOUT_CACHE_SIZE * bound < 18.1 * 2**20
    executor._LAYOUTS.clear()
    worst = wide_program(measured=8)
    kraus_form(worst)
    layout = executor._LAYOUTS[executor._shape(worst)]
    assert layout.coeffs.shape == (512, 2, 2, 2) and cached_bytes(layout) == bound
    for k in range(1, 9):
        for _, p, _ in programs(k, 830 + k):
            kraus_form(p)
    entries = list(executor._LAYOUTS.values())
    assert len(entries) == 1 + 8 * 5
    assert all(cached_bytes(layout) <= bound for layout in entries)
    assert sum(map(cached_bytes, entries)) <= executor.LAYOUT_CACHE_SIZE * bound
