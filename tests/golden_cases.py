"""The cases behind ``tests/data/golden_reports.json``.

Each case is a verification whose JSON report was recorded once: the
cases up to k = 4 before verification moved to the batched Kraus pass
(dense Choi matrix, per-probe branch enumeration), the k = 5..8 section
later, before the pass gave the slot a qubit of its own (see
``wide_cases``).  ``test_golden.py`` requires today's reports to agree
with those within floating-point rounding.

Record the cases the fixture does not hold yet, keeping every recorded
report as it is::

    PYTHONPATH=src python tests/golden_cases.py tests/data/golden_reports.json

A report that is meant to change is recorded anew by deleting its line
first.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from telegate import qsim
from telegate.builder import (
    MUTATIONS,
    NonlocalCUSpec,
    apply_mutation,
    build_program,
    build_specification,
)
from telegate.verifier import EquivalenceReport, verify_program

NAMED = {
    "I": qsim.I2, "X": qsim.X, "Y": qsim.Y, "Z": qsim.Z, "H": qsim.H,
    "S": qsim.S, "T": qsim.T, "RZ(0.3)": qsim.rz(0.3), "RX(1.1)": qsim.rx(1.1),
}


def cases():
    """Yield ``(name, spec, mutation or None, probe seed)``.

    The 109-gate acceptance sweep (same gates and seeds as acceptance
    criterion 1), every mutation of the 9 named gates, 4 Haar-random
    gates at each of k = 2, 3, 4 with and without every mutation, and
    then :func:`wide_cases`.
    """
    rng = np.random.default_rng(1)
    sweep = list(NAMED.items()) + [
        (f"haar1-{j}", qsim.haar_random_unitary(2, rng)) for j in range(100)
    ]
    for i, (label, c) in enumerate(sweep):
        yield f"sweep/{label}", NonlocalCUSpec.for_gate(c), None, i
    for i, (label, c) in enumerate(NAMED.items()):
        for m in MUTATIONS:
            yield f"named/{label}/{m}", NonlocalCUSpec.for_gate(c), m, i
    wide = np.random.default_rng(2)
    for k in (2, 3, 4):
        for j in range(4):
            spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, wide), k)
            for m in (None,) + MUTATIONS:
                yield f"k{k}/{j}/{m or 'intact'}", spec, m, 100 * k + j
    yield from wide_cases()


def wide_cases():
    """2 Haar-random gates at each of k = 5..8, with and without every
    mutation, drawn from a generator of their own, so that adding them
    moved no case before them."""
    rng = np.random.default_rng(3)
    for k in (5, 6, 7, 8):
        for j in range(2):
            spec = NonlocalCUSpec(qsim.haar_random_unitary(1 << k, rng), k)
            for m in (None,) + MUTATIONS:
                yield f"k{k}/{j}/{m or 'intact'}", spec, m, 100 * k + j


def report(spec: NonlocalCUSpec, mutation: str | None, seed: int) -> EquivalenceReport:
    program = build_program(spec)
    if mutation:
        program = apply_mutation(program, mutation)
    return verify_program(program, build_specification(spec), seed=seed)


def report_json(spec: NonlocalCUSpec, mutation: str | None, seed: int) -> str:
    return report(spec, mutation, seed).to_json()


def reference_json(r: EquivalenceReport) -> str:
    """The report as a dict through ``json.dumps``: the reference that
    ``EquivalenceReport.to_json`` must match byte for byte."""
    doc = {
        "verdict": r.verdict,
        "tolerances": {"branch": r.tol_branch, "choi": r.tol_choi},
        "census": {
            "ebits": r.census.ebits,
            "a_to_b": r.census.bits_alice_to_bob,
            "b_to_a": r.census.bits_bob_to_alice,
        },
        "choi_distance": r.choi_dist,
        "branches": [
            {"transcript": b.transcript, "probability": b.probability, "max_infidelity": b.max_infidelity}
            for b in r.branches
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def write_fixture(docs: dict, path: str) -> None:
    """One report per line, so a changed report shows as one changed line."""
    lines = [
        f"{json.dumps(name)}: {json.dumps(doc, sort_keys=True)}" for name, doc in sorted(docs.items())
    ]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        recorded = json.load(fh)
    for name, spec, m, seed in cases():
        if name not in recorded:
            recorded[name] = json.loads(report_json(spec, m, seed))
    write_fixture(recorded, sys.argv[1])
