"""Protocols the builder does not make certify against their specs.

Each program file of ``program_files`` lints, has its census, passes
against its spec and fails against the others, and fails without any one
of its ``cpauli`` lines.  The deferred-measurement oracle of
``tests/oracles.py`` gives every verdict independently: its Choi
distance, from definition sums over the unitary dilation, is within the
Choi tolerance exactly where the report passes, and equals the report's.
"""

import numpy as np
import pytest
from oracles import choi_of_unitary, deferred_measurement_choi, deferred_measurement_kraus
from program_files import FILES, program, without_each_cpauli
from telegate import executor, verifier
from telegate.executor import kraus_form
from telegate.protocol import ResourceCensus, resource_census, validate_locality
from telegate.verifier import DEFAULT_TOL_CHOI, verify_program

NAMES = list(FILES)


def assert_oracle_agrees(p, spec, report):
    """The oracle's Choi distance equals the report's within 1e-14 and
    gives the report's verdict; a pass keeps as many transcripts as the
    oracle's Kraus operators."""
    want = np.linalg.norm(deferred_measurement_choi(p) - choi_of_unitary(spec.matrix))
    assert abs(report.choi_dist - want) <= 1e-14
    assert report.passed == (want <= DEFAULT_TOL_CHOI)
    if report.passed:
        assert len(report.branches) == len(deferred_measurement_kraus(p))


@pytest.mark.parametrize("name", NAMES)
def test_file_lints_with_its_census(name):
    p = program(name)
    assert validate_locality(p) == []
    executor.check_register(p)
    assert resource_census(p) == ResourceCensus(*FILES[name][1])


@pytest.mark.parametrize("name", NAMES)
def test_file_certifies_against_its_spec_only(name):
    spec, census, wrong = FILES[name]
    p = program(name)
    report = verify_program(p, spec)
    assert report.passed and report.census == ResourceCensus(*census)
    assert_oracle_agrees(p, spec, report)
    for u in wrong:
        report = verify_program(p, u)
        assert not report.passed
        assert_oracle_agrees(p, u, report)


@pytest.mark.parametrize("name", NAMES)
def test_file_without_a_cpauli_fails(name):
    spec = FILES[name][0]
    mutants = list(without_each_cpauli(name))
    assert len(mutants) == (4 if name == "teledata_cnot.tg" else 2)
    for line, p in mutants:
        report = verify_program(p, spec)
        assert not report.passed, line
        assert_oracle_agrees(p, spec, report)


def test_the_files_take_the_routes_of_their_shapes():
    """The teleported-data CNOT has no slot (Bob's target is touched
    before the gate) and keeps 16 of its 32 transcripts: the last bit is
    always 0.  The two-target program's slot is its second cgate, which
    leaves r = 4, so its coefficients are (4, 2, 4, 4) and the spec does
    not split over {I, V}.  The mirror's slot is Alice's cgate."""
    teledata, cat, mirror = (program(name) for name in NAMES)
    assert executor._slot(teledata) is None
    assert len(verify_program(teledata, FILES["teledata_cnot.tg"][0]).branches) == 16
    form = kraus_form(cat)
    assert executor._slot(cat) == 6
    assert form.coeffs.shape == (4, 2, 4, 4)
    assert not verifier._splits(form, FILES["cat_two_targets.tg"][0])
    assert executor._slot(mirror) == 5

