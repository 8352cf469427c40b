"""Build the adder circuits and look inside.

Each design is a pure function of (variant, width): registers, an ordered
gate list at Toffoli level, and a final wire-name map identifying where the
sum bits land.
"""

from qcla import Design, build, count

# ---------------------------------------------------------------------------
# An 8-bit out-of-place adder: operands in A and B, sum on the X register.
circ = build(Design.OUT_FT_QCLA1, 8)

print("registers:")
for reg in circ.registers.values():
    kind = "ancilla" if reg.is_ancilla else "data"
    print(f"  {reg.name}: {reg.size} qubits ({kind})")

print(f"\ntotal qubits: {circ.num_qubits}")
print(f"gates: {len(circ.gates)}")

print("gate histogram:", count(circ).gate_histogram)

# ---------------------------------------------------------------------------
# The wire-name map: where each output lives when the circuit finishes.
print("\nsum bit positions:")
sum_bits = circ.labeled("s")
for i in range(9):
    print(f"  s{i}: {sum_bits[i]}")

# ---------------------------------------------------------------------------
# The in-place variant overwrites B with the sum and parks the carry-out on Z.
in_circ = build(Design.IN_FT_QCLA1, 8)
print("\nin-place variant:")
print(f"  qubits: {in_circ.num_qubits}")
print(f"  s8 lives on: {in_circ.labeled('s')[8]}")
