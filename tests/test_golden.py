"""Reports agree with the recorded golden reports.

Verdict, tolerances, census and the transcript list must be identical;
every float may move by rounding only (1e-14 absolute), because a change
of summation order changes the last bits even when the arithmetic is
the same.  Each report's text is also the canonical ``json.dumps`` form
of its fields (``golden_cases.reference_json``).
"""

import json
from pathlib import Path

import pytest

from golden_cases import cases, reference_json, report

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
