"""``telegate trace`` agrees with the recorded traces and with ``verify``.

Against ``tests/data/golden_traces.json`` (see ``trace_cases.py``) the
human table must be byte-identical and the JSON document must list the
same transcripts in the same order, every float within 1e-15.  Against
``verify_program(..., probes=0)``, whose probes are exactly the basis
inputs, each branch's ``max_infidelity`` must be the largest
``1 - fidelity`` that trace shows for it, bit for bit: both come from one
evidence formula over the whole basis, over the basis {I, V} or {1} that
the verifier's rule picks, which both read.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from telegate import gatelang, qsim, verifier
from telegate.builder import (
    MUTATIONS,
    NonlocalCUSpec,
    apply_mutation,
    build_program,
    build_specification,
)
from telegate.executor import kraus_form
from telegate.protocol import format_program, parse_program
from telegate.verifier import verify_program
from trace_cases import labels, programs, record, trace

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_traces.json").read_text())
CASES = {name: case for name, *case in programs()}
FLOAT_ATOL = 1e-15


def test_fixture_covers_every_case():
    assert list(GOLDEN) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_trace_matches_golden(name):
    got, want = record(*CASES[name]), GOLDEN[name]
    assert list(got) == list(want)
    for label in want:
        assert got[label]["human"] == want[label]["human"], label
        g, w = got[label]["json"], want[label]["json"]
        assert g.keys() == w.keys() and g["input"] == w["input"] == label
        assert [b["transcript"] for b in g["branches"]] == [b["transcript"] for b in w["branches"]]
        for gb, wb in zip(g["branches"], w["branches"]):
            assert gb.keys() == wb.keys()
            assert abs(gb["probability"] - wb["probability"]) <= FLOAT_ATOL, label
            assert abs(gb["fidelity"] - wb["fidelity"]) <= FLOAT_ATOL, label
            assert len(gb["amplitudes"]) == len(wb["amplitudes"])
            assert np.abs(np.subtract(gb["amplitudes"], wb["amplitudes"])).max() <= FLOAT_ATOL


def assert_trace_is_verify(text, against, n):
    report = verify_program(
        parse_program(text), gatelang.evaluate(gatelang.parse(against)), probes=0
    )
    worst: dict[str, float] = {}
    for label in labels(n):
        for b in json.loads(trace(text, against, label, "json"))["branches"]:
            worst[b["transcript"]] = max(worst.get(b["transcript"], 0.0), 1.0 - b["fidelity"])
    assert sorted(b.transcript for b in report.branches) == sorted(worst)
    for b in report.branches:
        assert b.max_infidelity == worst[b.transcript], b.transcript


@pytest.mark.parametrize("name", list(CASES))
def test_trace_fidelity_is_verify_basis_evidence(name):
    assert_trace_is_verify(*CASES[name])


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
@pytest.mark.parametrize("k", [1, 3, 4])
def test_trace_is_verify_on_both_sides_of_the_route_boundary(k, mutation):
    """At every k the built programs split over {I, V}, except the
    slot-free drop-cgate mutant, which takes {1}: trace and verify agree
    bit for bit on each."""
    spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, 70 + k), k)
    program, u = build_program(spec), build_specification(spec)
    if mutation:
        program = apply_mutation(program, mutation)
    assert verifier._splits(kraus_form(program), u) == (mutation != "drop-cgate")
    assert_trace_is_verify(format_program(program), gatelang.format_matrix(u), k + 1)
