"""telegate: build, execute and certify two-party gate-teleportation programs.

A program implementing a controlled unitary across an Alice/Bob cut is
constructed from one shared entangled pair plus one classical bit in
each direction, executed with exact measurement-branch semantics, and
numerically certified against the monolithic controlled gate via
per-branch fidelities and Choi-matrix distance.

>>> from telegate import NonlocalCUSpec, qsim, verify
>>> report = verify(NonlocalCUSpec.for_gate(qsim.X))
>>> report.verdict
'pass'
"""

from . import builder, executor, gatelang, protocol, qsim, verifier
from .builder import MUTATIONS, NonlocalCUSpec, apply_mutation, build_program, build_specification
from .executor import channel_choi, kraus_choi_distance, kraus_stack, transcript_key
from .protocol import (
    Party,
    Program,
    ResourceCensus,
    WireRef,
    format_program,
    parse_program,
    resource_census,
    validate_locality,
)
from .qsim import UnitaryMatrix
from .verifier import EquivalenceReport, verify, verify_program

__version__ = "0.1.0"

__all__ = [
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
