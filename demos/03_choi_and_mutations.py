# Channels as Choi matrices, and how sabotage shows up in them.
#
# Two channels are equal iff their Choi matrices are equal, so channel
# equality reduces to a matrix norm.  Here we extract the Choi matrix of
# the teleportation program, compare it to the ideal controlled gate, and
# then damage the program four different ways to see the distance jump.
# The distance is computed from the program's Kraus operators K_t, in the
# span of vec(K_t) and vec(U), without forming either Choi matrix.

import numpy as np

from telegate import (
    MUTATIONS,
    NonlocalCUSpec,
    apply_mutation,
    build_program,
    build_specification,
    channel_choi,
    kraus_choi_distance,
    kraus_stack,
    qsim,
)


def distance_to(program, u):
    return kraus_choi_distance(kraus_stack(program)[1], u)


spec = NonlocalCUSpec.for_gate(qsim.X)
program = build_program(spec, gate_label="X")
ideal = build_specification(spec)

j_program = channel_choi(program)
print(f"Choi dimension: {len(j_program)} x {len(j_program)}")
print(f"trace (normalized to 1): {np.trace(j_program).real:.12f}")
print(f"distance program vs ideal CNOT: {distance_to(program, ideal):.3e}")

print("\nEvery mutation is a different channel:")
for mutation in MUTATIONS:
    dist = distance_to(apply_mutation(program, mutation), ideal)
    print(f"  {mutation:<18} choi distance {dist:.3f}")

# For intuition: dropping the Z correction leaves a 50/50 mixture of CNOT
# and (Z x I)CNOT -- a dephasing of the control.  Its distance from the
# pure CNOT channel is ||J_CNOT - J_mix||_F = sqrt(2)/2.
print(f"\nexpected for drop-z-correction: {np.sqrt(2) / 2:.3f}")
