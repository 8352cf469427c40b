"""Export circuits to OpenQASM 3 and JSON, then parse them back.

Exports are byte-deterministic; the JSON schema (qcla-ir/1) round-trips the
full register table, init annotations, and the final wire-name map.  ``lift``
inverts ``lower``, so the reloaded Clifford+T stream lifts back to the
Toffoli-level adder it was lowered from.
"""

from qcla import Design, build, lift, lower
from qcla.jsonio import from_json, to_json
from qcla.qasm import parse_qasm3, to_qasm3

adder = build(Design.OUT_FT_QCLA1, 2)
circ = lower(adder)

text = to_qasm3(circ)
print("---- OpenQASM 3 (first 20 lines) ----")
print("\n".join(text.splitlines()[:20]))

back = parse_qasm3(text)
print(f"\nround-trip gate-list equal: {back.gates == circ.gates}")
print(f"byte-stable: {to_qasm3(lower(build(Design.OUT_FT_QCLA1, 2))) == text}")

js = to_json(circ)
reloaded = from_json(js)
print(f"JSON round-trip equal: {reloaded.structural_key() == circ.structural_key()}")
print(f"JSON size: {len(js)} bytes")
# lift raises CircuitError unless lowering its result gives the reload back
assert lift(reloaded).structural_key() == adder.structural_key()
print("JSON reload lifts to the built adder")
