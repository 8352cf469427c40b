"""Circuit IR: construction, append validation, ancilla allocation."""

import pytest

from qcla.ir import (
    AncillaInit,
    CircuitError,
    Level,
    QubitRef,
    cnot,
    h,
    new_circuit,
    temp_and,
    toffoli,
)

ZERO, MAGIC = AncillaInit.ZERO, AncillaInit.MAGIC_A


def test_new_circuit_registers():
    circ = new_circuit([("A", 2, None), ("B", 2, None), ("X", 3, [ZERO, MAGIC, MAGIC])])
    assert circ.num_qubits == 7
    assert circ.gates == []
    assert circ.level is Level.TOFFOLI
    assert circ.num_cbits == 0
    assert circ.init_of(QubitRef("X", 0)) is ZERO
    assert circ.init_of(QubitRef("X", 2)) is MAGIC
    assert circ.init_of(QubitRef("A", 1)) is None


def test_new_circuit_empty():
    assert new_circuit([]).num_qubits == 0


def test_new_circuit_duplicate_name():
    with pytest.raises(CircuitError, match="duplicate register"):
        new_circuit([("A", 2, None), ("A", 3, None)])


@pytest.mark.parametrize("name", ["a b", "9q", "c", "", "q[0]", "x-y"])
def test_add_register_rejects_bad_names(name):
    circ = new_circuit([])
    with pytest.raises(CircuitError, match="register name"):
        circ.add_register(name, 1)
    assert not circ.registers


def test_add_register_accepts_identifiers():
    circ = new_circuit([("c0", 1, None), ("_anc", 1, [ZERO]), ("cc", 0, None)])
    assert list(circ.registers) == ["c0", "_anc", "cc"]


def test_append_cnot():
    circ = new_circuit([("A", 2, None)])
    circ.append(cnot(QubitRef("A", 0), QubitRef("A", 1)))
    assert len(circ.gates) == 1


def test_append_duplicate_operand():
    circ = new_circuit([("A", 2, None)])
    q = QubitRef("A", 0)
    with pytest.raises(CircuitError, match="duplicate operands"):
        circ.append(toffoli(q, q, QubitRef("A", 1)))


def test_append_level_mismatch():
    circ = new_circuit([("A", 1, None)])
    with pytest.raises(CircuitError, match="not a Toffoli-level gate"):
        circ.append(h(QubitRef("A", 0)))
    ct = new_circuit([("A", 3, None)], level=Level.CLIFFORD_T)
    with pytest.raises(CircuitError, match="not a Clifford"):
        ct.append(toffoli(QubitRef("A", 0), QubitRef("A", 1), QubitRef("A", 2)))


def test_append_unresolved_operand():
    circ = new_circuit([("A", 1, None)])
    with pytest.raises(CircuitError, match="does not resolve"):
        circ.append(cnot(QubitRef("A", 0), QubitRef("B", 0)))


def test_temp_and_target_must_be_magic():
    circ = new_circuit([("A", 2, None), ("X", 1, [ZERO])])
    with pytest.raises(CircuitError, match="magic-state"):
        circ.append(temp_and(QubitRef("A", 0), QubitRef("A", 1), QubitRef("X", 0)))


def test_allocate_fresh_extends_register():
    circ = new_circuit([])
    for _ in range(3):
        circ.allocate_ancilla(MAGIC)
    assert circ.registers["anc"].size == 3


def test_measure_assigns_cbits_in_program_order():
    from qcla.ir import measure_x

    circ = new_circuit([("A", 3, None)], level=Level.CLIFFORD_T)
    for i in range(3):
        circ.append(measure_x(QubitRef("A", i)))
    assert [g.cbit for g in circ.gates] == [0, 1, 2]
    assert circ.num_cbits == 3


def test_cc_gate_requires_known_cbit():
    from qcla.ir import cc_z

    circ = new_circuit([("A", 2, None)], level=Level.CLIFFORD_T)
    with pytest.raises(CircuitError, match="classical bit"):
        circ.append(cc_z(0, QubitRef("A", 0), QubitRef("A", 1)))
