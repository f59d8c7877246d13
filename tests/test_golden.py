"""Reports agree with the recorded golden reports.

Verdict, tolerances, census and the transcript list must be identical;
every float may move by rounding only (1e-14 absolute), because a change
of summation order changes the last bits even when the arithmetic is
the same.  Each report's text is also the canonical ``json.dumps`` form
of its fields (``golden_cases.reference_json``).

The census is checked against what each spec needs: LOCC cannot create
entanglement, so a program that passes against a spec of operator
Schmidt rank 2 across the control|targets cut must hold an ebit, and no
operation signals without communication, so a program that passes
against a spec that signals both ways must send a bit each way.
"""

import json
from pathlib import Path

import pytest

from golden_cases import cases, reference_json, report
from oracles import controlled_signals, operator_schmidt_rank
from program_files import variants
from telegate import gatelang
from telegate.builder import MUTATIONS, NonlocalCUSpec, build_specification
from telegate.verifier import verify_program

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())
CASES = {name: case for name, *case in cases()}
FLOAT_ATOL = 1e-14


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(name):
    r = report(*CASES[name])
    text = r.to_json()
    assert text == reference_json(r)  # the canonical json.dumps form, byte for byte
    got = json.loads(text)
    want = GOLDEN[name]
    assert got.keys() == want.keys()
    for key in ("verdict", "tolerances", "census"):
        assert got[key] == want[key], key
    assert [b["transcript"] for b in got["branches"]] == [b["transcript"] for b in want["branches"]]
    assert abs(got["choi_distance"] - want["choi_distance"]) <= FLOAT_ATOL
    for g, w in zip(got["branches"], want["branches"]):
        assert abs(g["probability"] - w["probability"]) <= FLOAT_ATOL
        assert abs(g["max_infidelity"] - w["max_infidelity"]) <= FLOAT_ATOL


@pytest.mark.parametrize("gate, rank", [
    ("X", 2), ("H", 2), ("RZ(0.3)", 2), ("X x H", 2), ("RZ(0)", 1), ("[[1i,0],[0,1i]]", 1),
    ("[[1.00000000004,0],[0,1]]", 1),
])
def test_operator_schmidt_rank_of_controlled_gates(gate, rank):
    """controlled(V) has rank 2 across the control|targets cut unless V is
    a multiple of I, within what the gate language admits as unitary;
    it signals exactly when its rank is 2."""
    spec = NonlocalCUSpec.for_gate(gatelang.evaluate(gatelang.parse(gate)))
    u = build_specification(spec).matrix
    assert operator_schmidt_rank(u) == rank
    assert controlled_signals(u) == (rank == 2)


def test_every_pass_holds_the_ebit_its_spec_needs():
    """Census tripwire: every golden case, intact and under every
    mutation, that passes against a spec of rank 2 has ebits >= 1.  The
    cases hold specs of both ranks (gate I is rank 1), and every pass
    holds exactly one ebit."""
    passed = {1: set(), 2: set()}
    for name, spec, mutation, seed in cases():
        rank = operator_schmidt_rank(build_specification(spec).matrix)
        for m in (mutation,) if mutation else (None, *MUTATIONS):
            r = report(spec, m, seed)
            if r.passed:
                assert rank < 2 or r.census.ebits >= 1, (name, m)
                passed[rank].add(r.census.ebits)
    assert passed == {1: {1}, 2: {1}}


def test_every_pass_sends_the_bits_its_spec_needs():
    """Census tripwire, signalling half: every golden case, intact and
    under every mutation, and every program file of ``program_files``,
    against each of its specs and without each of its cpauli lines, that
    passes against a spec that signals sends at least one bit each way.
    The passes include specs that do not signal (gate I), and those that
    do send one bit each way, or two for the teleported-data CNOT."""
    passed = {False: set(), True: set()}
    runs = [
        ((name, m), report(spec, m, seed), build_specification(spec).matrix)
        for name, spec, mutation, seed in cases()
        for m in ((mutation,) if mutation else (None, *MUTATIONS))
    ]
    runs += [(label, verify_program(p, u), u.matrix) for label, p, u in variants()]
    for label, r, u in runs:
        if r.passed:
            c = r.census
            signals = controlled_signals(u)
            assert not signals or min(c.bits_alice_to_bob, c.bits_bob_to_alice) >= 1, label
            passed[signals].add((c.bits_alice_to_bob, c.bits_bob_to_alice))
    assert passed == {False: {(1, 1)}, True: {(1, 1), (2, 2)}}
