"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line in the terminal summary (see
conftest.py).  Tolerances are fixed here, not configurable.
"""

import json
import time

import numpy as np

from ensemble import branch_density, haar_random_state, run_branches
from oracles import deferred_measurement_density
from telegate import qsim
from telegate.builder import NonlocalCUSpec, apply_mutation, build_program, build_specification
from telegate.cli import main
from telegate.gatelang import GateSyntaxError, parse, format_expr
from telegate.protocol import (
    ApplyControlledLocal,
    ApplyLocal,
    MeasureZ,
    Party,
    Program,
    cwire,
    qwire,
    resource_census,
    validate_locality,
)
from telegate.verifier import verify, verify_program

TOL_BRANCH = 1e-10
TOL_CHOI = 1e-9
TOL_PROB = 1e-12
TOL_ORACLE = 1e-10


def test_criterion_1_equivalence_sweep():
    """Named gates plus 100 Haar-random unitaries all verify, each < 1 s."""
    named = [qsim.I2, qsim.X, qsim.Y, qsim.Z, qsim.H, qsim.S, qsim.T,
             qsim.rz(0.3), qsim.rx(1.1)]
    rng = np.random.default_rng(1)
    gates = named + [qsim.haar_random_unitary(2, rng) for _ in range(100)]
    for i, c in enumerate(gates):
        start = time.perf_counter()
        report = verify(NonlocalCUSpec.for_gate(c), seed=i)
        elapsed = time.perf_counter() - start
        assert report.passed, f"gate #{i} failed verification"
        assert report.max_infidelity <= TOL_BRANCH
        assert report.choi_dist <= TOL_CHOI
        assert elapsed < 1.0, f"gate #{i} took {elapsed:.3f}s"


def test_criterion_2_branch_uniformity():
    """All four transcripts have probability 0.25 within 1e-12."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        program = build_program(NonlocalCUSpec.for_gate(qsim.haar_random_unitary(2, rng)))
        for _ in range(20):
            outcomes = run_branches(program, haar_random_state(2, rng))
            assert len(outcomes) == 4
            for o in outcomes:
                assert abs(o.probability - 0.25) <= TOL_PROB


def test_criterion_3_resource_exactness():
    """Exactly one ebit and one classical bit in each direction."""
    for k, seed in ((1, 10), (2, 11), (3, 12)):
        program = build_program(NonlocalCUSpec(qsim.haar_random_unitary(1 << k, seed), k))
        census = resource_census(program)
        assert census.ebits == 1
        assert census.bits_alice_to_bob == 1
        assert census.bits_bob_to_alice == 1


def test_criterion_4_mutation_soundness(capsys):
    """Each scripted mutation fails loudly: exit 1 and a gross defect."""
    for mutation in ("drop-bell", "drop-x-correction", "drop-z-correction", "drop-cgate"):
        rc = main(["verify", "--gate", "X", "--mutate", mutation, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1, f"{mutation} did not fail"
        assert doc["verdict"] == "fail"
        worst = max(b["max_infidelity"] for b in doc["branches"])
        assert worst > 0.1 or doc["choi_distance"] > 0.1, f"{mutation} failed too quietly"


def test_criterion_5_deferred_measurement_oracle():
    """Branch mixture equals unitary dilation + trace-out for 25 random gates."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        program = build_program(NonlocalCUSpec.for_gate(qsim.haar_random_unitary(2, rng)))
        state = haar_random_state(2, rng)
        rho = branch_density(run_branches(program, state))
        rho_oracle = deferred_measurement_density(program, state)
        assert np.abs(rho - rho_oracle).max() <= TOL_ORACLE


def test_criterion_6_locality_fuzz():
    """100 programs with one injected cross-party instruction all rejected."""
    rng = np.random.default_rng(6)
    control, target = qwire(0), qwire(1)
    for _ in range(100):
        base = build_program(NonlocalCUSpec.for_gate(qsim.haar_random_unitary(2, rng)))
        assert validate_locality(base) == [], "builder output must always be accepted"
        choice = int(rng.integers(0, 4))
        if choice == 0:
            bad = ApplyLocal(Party.BOB, (control,), qsim.haar_random_unitary(2, rng))
        elif choice == 1:
            bad = ApplyLocal(Party.ALICE, (target,), qsim.haar_random_unitary(2, rng))
        elif choice == 2:
            bad = ApplyControlledLocal(Party.ALICE, control, (target,), qsim.X)
        else:
            bad = MeasureZ(Party.BOB, control, cwire(9))
        pos = int(rng.integers(0, len(base.instructions) + 1))
        fuzzed = Program(
            base.externals,
            base.instructions[:pos] + (bad,) + base.instructions[pos:],
            base.phases[:pos] + (None,) + base.phases[pos:],
        )
        assert validate_locality(fuzzed), "cross-party instruction slipped through"


def test_criterion_7_two_qubit_target():
    """A random 4x4 unitary verifies end-to-end (5 internal qubits) < 2 s."""
    c = qsim.haar_random_unitary(4, 7)
    start = time.perf_counter()
    report = verify(NonlocalCUSpec(c, 2), seed=7)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.max_infidelity <= TOL_BRANCH
    assert report.choi_dist <= TOL_CHOI
    assert elapsed < 2.0, f"took {elapsed:.3f}s"


def test_criterion_8_parser_corpus(capsys):
    """1000 expressions round-trip; conventions hold; errors are positioned."""
    from oracles import random_gate_expr

    rng = np.random.default_rng(8)
    for _ in range(1000):
        expr = random_gate_expr(rng, depth=int(rng.integers(0, 5)))
        assert parse(format_expr(expr)) == expr

    from telegate.gatelang import evaluate

    assert np.abs(evaluate(parse("H*H")).matrix - np.eye(2)).max() <= 1e-12
    assert np.abs(evaluate(parse("S*S")).matrix - qsim.Z.matrix).max() <= 1e-12

    for text, offset in (("RZ(", 3), ("H * * X", 4), ("FOO", 0)):
        try:
            parse(text)
            raise AssertionError(f"{text!r} parsed unexpectedly")
        except GateSyntaxError as exc:
            assert exc.offset == offset
            assert f"offset {offset}" in str(exc)
        assert main(["verify", "--gate", text]) == 2
        assert capsys.readouterr().err.strip()


def test_criterion_9_wide_targets():
    """k = 5..8 certify, each < 2 s, and drop-z-correction fails at Choi
    distance 1/sqrt(2); at k=5 the branch mixture matches the oracle."""
    rng = np.random.default_rng(9)
    for k in (5, 6, 7, 8):
        spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, rng), k)
        u = build_specification(spec)
        start = time.perf_counter()
        report = verify(spec, seed=k)
        elapsed = time.perf_counter() - start
        assert report.passed, f"k={k} failed verification"
        assert report.max_infidelity <= TOL_BRANCH
        assert report.choi_dist <= TOL_CHOI
        assert elapsed < 2.0, f"k={k} took {elapsed:.3f}s"
        # dropping Z leaves (Z x I)CU on half the transcripts, orthogonal to CU
        mutated = apply_mutation(build_program(spec), "drop-z-correction")
        report = verify_program(mutated, u, seed=k)
        assert not report.passed
        assert abs(report.choi_dist - 2 ** -0.5) <= 1e-12
        if k == 5:
            for program in (build_program(spec), mutated):
                state = haar_random_state(k + 1, rng)
                rho = branch_density(run_branches(program, state))
                rho_oracle = deferred_measurement_density(program, state)
                assert np.abs(rho - rho_oracle).max() <= TOL_ORACLE
