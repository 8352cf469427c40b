"""Circuit IR: construction, append validation, ancilla allocation, labels, inputs."""

import json
import re

import pytest

from qcla import ir
from qcla.builders import Design, build
from qcla.ir import (
    AncillaInit,
    CircuitError,
    Gate,
    GateKind,
    Level,
    QubitRef,
    T_KINDS,
    cc_x,
    cc_z,
    cnot,
    h,
    label_index,
    measure_x,
    new_circuit,
    not_,
    temp_and,
    toffoli,
)
from qcla.jsonio import JsonIrError, from_json, to_json
from qcla.lowering import lower
from qcla.qasm import _SPELLING, QasmError, parse_qasm3, to_qasm3
from qcla.revsim import initial_state, read_labeled, run_basis
from qcla.statevec import _PHASE, SeededRandom, simulate

ZERO = AncillaInit.ZERO


def test_new_circuit_registers():
    circ = new_circuit([("A", 2, None), ("B", 2, None), ("X", 3, [ZERO] * 3)])
    assert circ.num_qubits == 7
    assert circ.gates == []
    assert circ.level is Level.TOFFOLI
    assert circ.num_cbits == 0
    assert circ.registers["X"].inits == [ZERO] * 3
    assert circ.registers["A"].inits is None


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


@pytest.mark.parametrize(
    "make",
    [
        lambda q, a: toffoli(q, a, q),
        lambda q, a: toffoli(a, q, q),
        lambda q, a: cnot(q, q),
        lambda q, a: temp_and(q, a, q),
    ],
    ids=["toffoli-first-third", "toffoli-second-third", "cnot", "temp_and-first-third"],
)
def test_duplicate_operands_are_refused_at_each_position_pair(make):
    circ = new_circuit([("A", 2, None)])
    gate = make(QubitRef("A", 0), QubitRef("A", 1))
    with pytest.raises(CircuitError, match=f"^duplicate operands in gate {gate.kind.value}$"):
        circ.append(gate)
    assert circ.gates == []


def test_an_unresolved_repeated_operand_is_reported_as_unresolved():
    """Operands must resolve before they are compared with each other."""
    circ = new_circuit([("A", 1, None)])
    q = QubitRef("B", 0)
    with pytest.raises(CircuitError, match=re.escape("operand B[0] does not resolve")):
        circ.append(cnot(q, q))


def test_operands_equal_by_index_value_are_duplicates():
    circ = new_circuit([("A", 2, None)])
    with pytest.raises(CircuitError, match="duplicate operands in gate cnot"):
        circ.append(cnot(QubitRef("A", True), QubitRef("A", 1)))
    assert circ.gates == []


def test_append_level_mismatch():
    circ = new_circuit([("A", 1, None)])
    with pytest.raises(CircuitError, match="not a Toffoli-level gate"):
        circ.append(h(QubitRef("A", 0)))
    ct = new_circuit([("A", 3, None)], level=Level.CLIFFORD_T)
    with pytest.raises(CircuitError, match="not a Clifford"):
        ct.append(toffoli(QubitRef("A", 0), QubitRef("A", 1), QubitRef("A", 2)))


# Each kind's qubit operand count and the kinds legal at one level only,
# written out: NOT and CNOT are legal at both levels.
ARITY = {
    "not": 1, "cnot": 2, "toffoli": 3, "temp_and": 3, "uncompute": 3,
    "h": 1, "t": 1, "tdg": 1, "s": 1, "sdg": 1, "z": 1,
    "measure_x": 1, "cc_z": 2, "cc_x": 1,
}
TOFFOLI_ONLY = {"toffoli", "temp_and", "uncompute"}
CLIFFORD_T_ONLY = {"h", "t", "tdg", "s", "sdg", "z", "measure_x", "cc_z", "cc_x"}


@pytest.mark.parametrize("level", list(Level))
@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_kind_arity_and_level(kind, level):
    """A gate of the right arity appends only at its legal level; one operand
    too many is refused at either level."""
    # an ancilla register, so a temporary AND may target any of its qubits
    circ = new_circuit([("M", 4, [ZERO] * 4), ("C", 1, [ZERO])], level=level)
    if level is Level.CLIFFORD_T:
        circ.append(measure_x(QubitRef("C", 0)))  # bit 0 for the classically controlled kinds
    qs = [QubitRef("M", i) for i in range(4)]
    arity = ARITY[kind.value]
    cbit = 0 if kind.value in ("cc_z", "cc_x") else None
    gate = Gate(kind, tuple(qs[:arity]), cbit)
    other_only = CLIFFORD_T_ONLY if level is Level.TOFFOLI else TOFFOLI_ONLY
    if kind.value in other_only:
        where = "Toffoli-level" if level is Level.TOFFOLI else "Clifford+T"
        with pytest.raises(CircuitError, match=re.escape(f"{kind.value} is not a {where} gate")):
            circ.append(gate)
    else:
        circ.append(gate)
        assert circ.gates[-1].kind is kind and circ.gates[-1].qubits == gate.qubits
    with pytest.raises(CircuitError, match=f"{kind.value} takes {arity} qubit operands, got"):
        circ.append(Gate(kind, tuple(qs[: arity + 1]), cbit))


_A0, _A1, _Z0, _Q0 = QubitRef("A", 0), QubitRef("A", 1), QubitRef("Z", 0), QubitRef("Q", 0)

# (level, a gate that breaks two adjacent rules of Circuit.extend, the earlier
# rule's message).  The rules in order: arity, resolve, distinct, level, AND
# target, classical bit; Q[0] resolves nowhere, A is a data register and Z[0]
# is a ZERO ancilla.
TWO_RULES_BROKEN = {
    "toffoli-arity-resolve": (
        Level.TOFFOLI, Gate(GateKind.CNOT, (_A0, _Q0, _A1)), "cnot takes 2 qubit operands, got 3"
    ),
    "toffoli-resolve-distinct": (
        Level.TOFFOLI, Gate(GateKind.CNOT, (_Q0, _Q0)),
        "operand Q[0] does not resolve in the register table",
    ),
    "toffoli-distinct-level": (
        Level.TOFFOLI, Gate(GateKind.CC_Z, (_A0, _A0), 0), "duplicate operands in gate cc_z"
    ),
    "toffoli-level-bit": (Level.TOFFOLI, Gate(GateKind.H, (_A0,), 0), "h is not a Toffoli-level gate"),
    "toffoli-and_target-bit": (
        Level.TOFFOLI, Gate(GateKind.TEMP_AND, (_A0, _Z0, _A1), 0),
        "temporary-AND target A[1] is not an ancilla",
    ),
    "toffoli-plain_kind-arity-bit": (
        Level.TOFFOLI, Gate(GateKind.NOT, (_A0, _A1), 0), "not takes 1 qubit operands, got 2"
    ),
    "toffoli-plain_kind-distinct-bit": (
        Level.TOFFOLI, Gate(GateKind.CNOT, (_A0, _A0), 0), "duplicate operands in gate cnot"
    ),
    "toffoli-plain_kind-bit": (
        Level.TOFFOLI, Gate(GateKind.CNOT, (_A0, _A1), 0), "cnot carries classical bit 0"
    ),
    "cliffordt-arity-resolve": (
        Level.CLIFFORD_T, Gate(GateKind.H, (_Q0, _A0)), "h takes 1 qubit operands, got 2"
    ),
    "cliffordt-resolve-distinct": (
        Level.CLIFFORD_T, Gate(GateKind.CC_Z, (_Q0, _Q0), 0),
        "operand Q[0] does not resolve in the register table",
    ),
    "cliffordt-distinct-level": (
        Level.CLIFFORD_T, Gate(GateKind.TOFFOLI, (_A0, _A1, _A0)), "duplicate operands in gate toffoli"
    ),
    "cliffordt-level-and_target": (
        Level.CLIFFORD_T, Gate(GateKind.TEMP_AND, (_A0, _A1, _Z0)), "temp_and is not a Clifford+T gate"
    ),
    "cliffordt-level-bit": (
        Level.CLIFFORD_T, Gate(GateKind.UNCOMPUTE, (_A0, _A1, _Z0), 0),
        "uncompute is not a Clifford+T gate",
    ),
    "cliffordt-plain_kind-arity-bit": (
        Level.CLIFFORD_T, Gate(GateKind.T, (_A0, _A1), 0), "t takes 1 qubit operands, got 2"
    ),
    "cliffordt-plain_kind-bit": (
        Level.CLIFFORD_T, Gate(GateKind.S, (_A0,), 0), "s carries classical bit 0"
    ),
}


@pytest.mark.parametrize("level, gate, message", TWO_RULES_BROKEN.values(), ids=TWO_RULES_BROKEN)
def test_the_first_broken_rule_names_the_error(level, gate, message):
    """A gate that breaks two rules raises the earlier rule's message, alone
    or after valid gates in one batch; the failing batch appends nothing and
    leaves ``num_cbits`` as it was."""
    circ = new_circuit([("A", 2, None), ("Z", 1, [ZERO])], level=level)
    if level is Level.CLIFFORD_T:
        circ.append(measure_x(_Z0))
        prefix = [h(_A0), measure_x(_A1), cnot(_A0, _A1), cc_z(1, _A0, _A1)]
    else:
        circ.append(cnot(_A0, _A1))
        prefix = [cnot(_A1, _A0), toffoli(_A0, _A1, _Z0), not_(_Z0)]
    gates, num_cbits = list(circ.gates), circ.num_cbits
    for batch in ([gate], prefix + [gate] + prefix):
        with pytest.raises(CircuitError) as info:
            circ.extend(batch)
        assert str(info.value) == message
        assert circ.gates == gates and circ.num_cbits == num_cbits
    circ.extend(prefix)  # the valid gates alone append
    assert len(circ.gates) == len(gates) + len(prefix)


def test_gate_kinds_hash_by_identity():
    """Kinds are singletons, so they hash by identity and still key the
    package's kind tables."""
    for kind in GateKind:
        assert hash(kind) == object.__hash__(kind)
    assert {k for k in GateKind if k in T_KINDS} == {GateKind.T, GateKind.TDG}
    assert {k: k.value for k in GateKind}[GateKind.CC_X] == "cc_x"
    assert _SPELLING[GateKind.SDG] == ("sdg", False) and GateKind.MEASURE_X not in _SPELLING
    assert GateKind.TDG in _PHASE and GateKind.H not in _PHASE


# The plain helper of each kind, by its name in qcla.ir.  No source file uses
# sdg or z, so only this table checks what those two are bound to.
PLAIN_HELPERS = {
    "not_": GateKind.NOT, "cnot": GateKind.CNOT, "toffoli": GateKind.TOFFOLI,
    "temp_and": GateKind.TEMP_AND, "uncompute": GateKind.UNCOMPUTE, "h": GateKind.H,
    "t": GateKind.T, "tdg": GateKind.TDG, "s": GateKind.S, "sdg": GateKind.SDG,
    "z": GateKind.Z,
}


@pytest.mark.parametrize("name", list(PLAIN_HELPERS))
def test_plain_helper_builds_the_gate_of_its_kind(name):
    kind = PLAIN_HELPERS[name]
    qs = tuple(QubitRef("q", i) for i in range(kind.arity))
    g = getattr(ir, name)(*qs)
    assert type(g) is Gate
    assert g == Gate(kind, qs) and hash(g) == hash(Gate(kind, qs))
    assert g.kind is kind and g.qubits == qs and g.cbit is None


def test_every_kind_but_the_classical_bit_kinds_has_a_plain_helper():
    bit_kinds = {GateKind.MEASURE_X, GateKind.CC_Z, GateKind.CC_X}
    assert len(set(PLAIN_HELPERS.values())) == len(PLAIN_HELPERS)
    assert set(PLAIN_HELPERS.values()) == set(GateKind) - bit_kinds


def test_plain_helper_with_the_wrong_operand_count_is_refused_by_extend():
    circ = new_circuit([("A", 3, None)])
    with pytest.raises(CircuitError, match="cnot takes 2 qubit operands, got 3"):
        circ.append(cnot(QubitRef("A", 0), QubitRef("A", 1), QubitRef("A", 2)))
    assert circ.gates == []


def test_append_unresolved_operand():
    circ = new_circuit([("A", 1, None)])
    with pytest.raises(CircuitError, match="does not resolve"):
        circ.append(cnot(QubitRef("A", 0), QubitRef("B", 0)))


def test_index_equal_to_no_register_index_does_not_resolve():
    circ = new_circuit([("A", 2, None)])
    with pytest.raises(CircuitError, match=re.escape("operand A[1.5] does not resolve")):
        circ.append(cnot(QubitRef("A", 1.5), QubitRef("A", 0)))
    assert circ.gates == []


def test_index_equal_to_a_register_index_is_written_as_that_index():
    circ = new_circuit([("A", 2, None)], level=Level.CLIFFORD_T)
    circ.extend([cnot(QubitRef("A", True), QubitRef("A", 0)), h(QubitRef("A", 1.0))])
    assert to_qasm3(circ).endswith("cx A[1], A[0];\nh A[1];\n")
    assert from_json(to_json(circ)).gates == circ.gates


@pytest.mark.parametrize("bit", [False, 0.0])
def test_measurement_bit_must_be_an_int(bit):
    circ = new_circuit([("A", 1, None)], level=Level.CLIFFORD_T)
    msg = f"measure_x writes bit {bit}; the next classical bit is 0"
    with pytest.raises(CircuitError, match=re.escape(msg)):
        circ.append(measure_x(QubitRef("A", 0), bit))
    assert circ.gates == [] and circ.num_cbits == 0


@pytest.mark.parametrize("bit", [False, 0.0])
def test_condition_bit_must_be_an_int(bit):
    circ = new_circuit([("A", 3, None)], level=Level.CLIFFORD_T)
    circ.append(measure_x(QubitRef("A", 2)))
    for gate in (cc_z(bit, QubitRef("A", 0), QubitRef("A", 1)), cc_x(bit, QubitRef("A", 0))):
        with pytest.raises(CircuitError, match=f"{gate.kind.value} references unknown classical bit"):
            circ.append(gate)
    assert len(circ.gates) == 1


def test_temp_and_target_must_be_an_ancilla():
    """The AND rule reads the target's register: any qubit of an ancilla
    register is accepted, a data qubit is refused and nothing is appended."""
    circ = new_circuit([("A", 2, None), ("X", 1, [ZERO])])
    circ.append(temp_and(QubitRef("A", 0), QubitRef("A", 1), QubitRef("X", 0)))
    with pytest.raises(CircuitError, match=re.escape("temporary-AND target A[1] is not an ancilla")):
        circ.append(temp_and(QubitRef("A", 0), QubitRef("X", 0), QubitRef("A", 1)))
    assert circ.gates == [temp_and(QubitRef("A", 0), QubitRef("A", 1), QubitRef("X", 0))]


def test_qasm_refuses_a_magic_ancilla():
    """zero is the one ancilla init, so a magic_a annotation is an unknown init."""
    text = 'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[1] a;\n// ancilla a: magic_a\n'
    with pytest.raises(QasmError, match="unknown ancilla init in '// ancilla a: magic_a'"):
        parse_qasm3(text)
    assert parse_qasm3(text.replace("magic_a", "zero")).registers["a"].inits == [ZERO]


def test_json_refuses_a_magic_ancilla():
    """A Toffoli-level document that says magic_a, as earlier versions wrote
    every AND target, is refused as an unknown init; written as zero it loads."""
    circ = build(Design.OUT_FT_QCLA1, 2)
    text = to_json(circ)
    assert '"magic_a"' not in text
    old = text.replace('"zero"', '"magic_a"')
    with pytest.raises(JsonIrError, match="'magic_a' is not a valid AncillaInit"):
        from_json(old)
    assert from_json(old.replace('"magic_a"', '"zero"')).structural_key() == circ.structural_key()


def test_float_temp_and_target_reads_the_init_of_its_register_index():
    """X[1.0] is X[1] of an ancilla register: accepted, and both writers spell
    it 1; A[0.0] is the data qubit A[0] and refused with the circuit rule's own
    message."""
    circ = new_circuit([("A", 2, None), ("X", 2, [ZERO, ZERO])])
    a0, a1 = QubitRef("A", 0), QubitRef("A", 1)
    circ.append(temp_and(a0, a1, QubitRef("X", 1.0)))
    assert json.loads(to_json(circ))["gates"][0]["qubits"][2] == ["X", 1]
    assert "cx A[0], X[1];\n" in to_qasm3(lower(circ))
    assert from_json(to_json(circ)).gates == circ.gates
    msg = "temporary-AND target A[0.0] is not an ancilla"
    with pytest.raises(CircuitError, match=re.escape(msg)):
        circ.append(temp_and(a1, QubitRef("X", 0), QubitRef("A", 0.0)))
    assert len(circ.gates) == 1


def test_label_key_is_spelled_by_register_index():
    """A label on X[1.0] is a label on X[1]: JSON spells its key as the
    operand is spelled, and the document loads back."""
    circ = new_circuit([("A", 2, None), ("X", 2, [ZERO, ZERO])])
    circ.labels[QubitRef("X", 1.0)] = "s1"
    circ.labels[QubitRef("A", True)] = "a1"
    assert json.loads(to_json(circ))["labels"] == {"X[1]": "s1", "A[1]": "a1"}
    back = from_json(to_json(circ))
    assert back.labels == circ.labels and back.labeled("s") == {1: QubitRef("X", 1)}
    assert back.structural_key() == circ.structural_key()


@pytest.mark.parametrize("where", [QubitRef("X", 1.5), QubitRef("X", 2), QubitRef("B", 0)])
def test_label_on_an_unresolved_qubit_is_not_written(where):
    circ = new_circuit([("A", 2, None), ("X", 2, [ZERO, ZERO])])
    circ.labels[where] = "s0"
    with pytest.raises(CircuitError, match=re.escape(f"label 's0' is on unknown qubit {where}")):
        to_json(circ)
    with pytest.raises(CircuitError, match=re.escape(f"label 's0' is on unknown qubit {where}")):
        circ.structural_key()


def test_unresolved_label_is_not_keyed_as_the_qubit_it_prints_as():
    """A label on A['0'] prints as A[0] but is not on A[0]: the structural key
    refuses it rather than putting it next to a real A[0] label."""
    circ = new_circuit([("A", 2, None)])
    circ.labels[QubitRef("A", 0)] = "a0"
    circ.labels[QubitRef("A", "0")] = "s0"
    with pytest.raises(CircuitError, match=re.escape("label 's0' is on unknown qubit A[0]")):
        circ.structural_key()


@pytest.mark.parametrize("size", [2.0, "2", True, None, -1])
def test_register_size_must_be_an_int_of_at_least_zero(size):
    msg = f"register 'A' size {size!r} is not an int >= 0"
    with pytest.raises(CircuitError, match=re.escape(msg)):
        new_circuit([("A", size, None)])


def test_allocate_fresh_extends_register():
    circ = new_circuit([])
    for _ in range(3):
        circ.allocate_ancilla()
    assert circ.registers["anc"].size == 3
    assert circ.registers["anc"].inits == [ZERO] * 3


def _same_refs(got, want):
    """``got`` are ``QubitRef`` instances equal and hash-equal to ``want``."""
    assert [type(q) for q in got] == [QubitRef] * len(want)
    assert got == want and [hash(q) for q in got] == [hash(q) for q in want]
    assert [(q.reg, q.index, str(q)) for q in got] == [(q.reg, q.index, str(q)) for q in want]


def test_qubits_are_qubit_refs_in_register_table_order():
    circ = new_circuit([("B", 2, None), ("E", 0, None), ("A", 1, None), ("X", 2, [ZERO, ZERO])])
    want = [QubitRef("B", 0), QubitRef("B", 1), QubitRef("A", 0), QubitRef("X", 0), QubitRef("X", 1)]
    _same_refs(list(circ.qubits()), want)
    assert {q: i for i, q in enumerate(want)} == circ.qubit_positions()
    assert list(new_circuit([("E", 0, None)]).qubits()) == []
    assert list(new_circuit([]).qubits()) == []


def test_allocated_ancillae_are_qubit_refs():
    """From an absent and from an empty ancilla register."""
    absent = new_circuit([("A", 1, None)], ancilla_register="Z")
    empty = new_circuit([("Z", 0, [])], ancilla_register="Z")
    for circ in (absent, empty):
        got = [circ.allocate_ancilla() for _ in range(3)]
        _same_refs(got, [QubitRef("Z", i) for i in range(3)])
        assert list(circ.qubits())[-3:] == got


def test_allocating_into_a_data_register_raises():
    """An ancilla register that names a data register is an error, also under
    ``python -O``, and the register keeps its size and its lack of inits."""
    circ = new_circuit([("A", 1, None)], ancilla_register="A")
    with pytest.raises(CircuitError, match="^ancilla register 'A' is a data register$"):
        circ.allocate_ancilla()
    reg = circ.registers["A"]
    assert (reg.size, reg.inits, circ.num_qubits) == (1, None, 1)


def test_measure_assigns_cbits_in_program_order():
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


@pytest.mark.parametrize(
    "label, prefix, index",
    [("s12", "s", 12), ("s0", "s", 0), ("a3", "a", 3), ("spent", "s", None), ("s", "s", None),
     ("s-1", "s", None), ("s²", "s", None), ("s٣", "s", None), ("b1", "s", None)],
)
def test_label_index_reads_ascii_digits_only(label, prefix, index):
    assert label_index(label, prefix) == index
    circ = new_circuit([("A", 1, None)])
    circ.labels[QubitRef("A", 0)] = label
    assert circ.labeled(prefix) == ({} if index is None else {index: QubitRef("A", 0)})


@pytest.mark.parametrize("label", ["s²", "s٣"])
def test_unicode_digit_label_is_not_a_sum_bit(label):
    """A loaded label spelled with a non-ASCII digit is no sum bit, for every reader."""
    data = json.loads(to_json(build(Design.OUT_FT_QCLA1, 2)))
    data["labels"] = {k: label if v == "s1" else v for k, v in data["labels"].items()}
    circ = from_json(json.dumps(data))
    assert sorted(circ.labeled("s")) == [0, 2]
    want = (3 + 3) & ~0b10  # the sum without bit 1
    assert read_labeled(circ, run_basis(circ, initial_state(circ, {"A": 3, "B": 3}))) == want
    out, = simulate(lower(circ), {"A": 3, "B": 3}, SeededRandom(1))
    assert out.labeled_int("s") == want


@pytest.mark.parametrize("spelling", ["s1", "s01"])
def test_duplicated_sum_index_raises(spelling):
    circ = build(Design.OUT_FT_QCLA1, 2)
    circ.labels[QubitRef("A", 0)] = spelling
    with pytest.raises(CircuitError, match="both carry s1"):
        circ.labeled("s")
    with pytest.raises(CircuitError, match="both carry s1"):
        read_labeled(circ, run_basis(circ, initial_state(circ, {"A": 1, "B": 2})))


def test_basis_input_in_register_order():
    circ = new_circuit([("A", 2, None), ("X", 2, [ZERO, ZERO]), ("B", 1, None)])
    bits = circ.basis_input({"A": 0b10, "B": 1})
    assert list(bits) == list(circ.qubits())
    assert list(bits.values()) == [0, 1, 0, 0, 1]
    with pytest.raises(ValueError, match="does not fit register 'A'"):
        circ.basis_input({"A": 4, "B": 0})
    with pytest.raises(ValueError, match="data register 'B' needs an input value"):
        circ.basis_input({"A": 0})


@pytest.mark.parametrize("value", [1.0, True, "1", 1 + 0j])
def test_basis_input_refuses_a_value_that_is_not_an_int(value):
    circ = new_circuit([("A", 2, None), ("X", 1, [ZERO])])
    msg = f"value {value!r} for register 'A' is not an int"
    with pytest.raises(ValueError, match=re.escape(msg)):
        circ.basis_input({"A": value})
    with pytest.raises(ValueError, match="is not an int"):
        initial_state(circ, {"A": 1, "X": value})


def test_qubit_ref_parse_inverts_str():
    for design in Design:
        for n in range(1, 17):
            for circ in (build(design, n), lower(build(design, n))):
                for q in circ.qubits():
                    assert QubitRef.parse(str(q)) == q


@pytest.mark.parametrize(
    "text", ["q[٣]", "q[-1]", "q[1", "[0]", "q[01]", "q[0] ", "a b[0]", "q[]"]
)
def test_qubit_ref_parse_rejects(text):
    with pytest.raises(ValueError, match="is not a qubit reference"):
        QubitRef.parse(text)
