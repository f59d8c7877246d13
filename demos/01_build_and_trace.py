# Building the two-party program for a controlled gate and watching every
# measurement branch.
#
# Alice holds the control qubit, Bob holds the target.  Neither party may
# apply a gate to the other's qubit; they share one entangled pair up front
# and may send classical bits.  The builder emits the standard three-phase
# program; the executor enumerates all four classical transcripts exactly,
# as one Kraus operator K_t per transcript t.  On an input psi, transcript t
# happens with probability |K_t psi|^2 and leaves K_t psi, normalized.

import numpy as np

from telegate import (
    NonlocalCUSpec, build_program, kraus_stack, qsim, resource_census, transcript_key,
)
from telegate.protocol import format_instruction

# The gate to control: X, so the whole construction implements a CNOT whose
# control and target live at different parties.
spec = NonlocalCUSpec.for_gate(qsim.X)
program = build_program(spec, gate_label="X")

print("instructions, by phase:")
for instruction, tag in zip(program.instructions, program.phases):
    print(f"  phase {tag}: {format_instruction(instruction)}")

census = resource_census(program)
print(f"\nconsumes: {census.ebits} ebit, "
      f"{census.bits_alice_to_bob} bit Alice->Bob, "
      f"{census.bits_bob_to_alice} bit Bob->Alice")

transcripts, ops = kraus_stack(program)

# Run it on |10> (control set, target clear).  A CNOT should give |11>
# on every branch, and each of the four transcripts is equally likely --
# the measured bits are pure noise, carrying nothing about the input.
ten = np.array([0, 0, 1, 0])
print("\nbranches on input |10>:")
for transcript, out in zip(transcripts, ops @ ten):
    p = np.vdot(out, out).real
    amps = np.round(out / np.sqrt(p), 12)
    print(f"  {transcript_key(transcript)}   p={p:.4f}   final amplitudes {amps}")

# The same program teleports superposed controls too.
plus = np.array([1, 0, 1, 0]) / np.sqrt(2)  # (|00> + |10>)/sqrt(2)
bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
print("\nbranches on a superposed control (expect a Bell state):")
for transcript, out in zip(transcripts, ops @ plus):
    phi = out / np.linalg.norm(out)
    print(f"  {transcript_key(transcript)}   fidelity vs Bell = {abs(np.vdot(phi, bell)):.12f}")
