"""The public surface of the package."""

import telegate

PUBLIC = [
    "EquivalenceReport",
    "MUTATIONS",
    "NonlocalCUSpec",
    "Party",
    "Program",
    "ResourceCensus",
    "UnitaryMatrix",
    "WireRef",
    "apply_mutation",
    "build_program",
    "build_specification",
    "builder",
    "channel_choi",
    "executor",
    "format_program",
    "gatelang",
    "kraus_choi_distance",
    "kraus_stack",
    "parse_program",
    "protocol",
    "qsim",
    "resource_census",
    "transcript_key",
    "validate_locality",
    "verifier",
    "verify",
    "verify_program",
]


def test_public_names_are_pinned_and_resolve():
    assert telegate.__all__ == PUBLIC == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(telegate, name) is not None
