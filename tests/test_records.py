"""The records ``import qcla`` builds (``Circuit``, ``Register`` and
``ResourceReport``) have a plain constructor, not a dataclass's; they keep a
dataclass's construction, defaults, equality, ``repr`` and copying."""

import copy
import pickle
from types import SimpleNamespace

import pytest

from qcla import Design, build, count, lower
from qcla.ir import AncillaInit, Circuit, CircuitError, Level, QubitRef, Register, not_
from qcla.measure import ResourceReport

ZERO = AncillaInit.ZERO


def test_circuits_share_no_default_container():
    first, second = Circuit(), Circuit()
    for name in ("registers", "gates", "labels"):
        assert getattr(first, name) == getattr(second, name) == ({} if name != "gates" else [])
        assert getattr(first, name) is not getattr(second, name)
    first.add_register("A", 1)
    first.append(not_(QubitRef("A", 0)))
    first.labels[QubitRef("A", 0)] = "a0"
    assert (second.registers, second.gates, second.labels) == ({}, [], {})


def test_circuit_defaults_and_field_order():
    circ = Circuit()
    assert list(vars(circ).items()) == [
        ("registers", {}), ("gates", []), ("level", Level.TOFFOLI), ("num_cbits", 0),
        ("labels", {}), ("ancilla_register", "anc")]
    assert list(vars(Register("A", 2)).items()) == [("name", "A"), ("size", 2), ("inits", None)]


def test_keyword_and_positional_construction_agree():
    regs = {"X": Register("X", 1, [ZERO])}
    gates = [not_(QubitRef("X", 0))]
    labels = {QubitRef("X", 0): "spent"}
    by_position = Circuit(regs, gates, Level.CLIFFORD_T, 0, labels, "x")
    by_keyword = Circuit(registers=regs, gates=gates, level=Level.CLIFFORD_T, num_cbits=0,
                         labels=labels, ancilla_register="x")
    assert by_position == by_keyword
    assert by_position.registers is regs and by_position.gates is gates
    assert by_position.labels is labels
    assert Register("X", 1, [ZERO]) == Register(name="X", size=1, inits=[ZERO])
    rep = count(lower(build(Design.OUT_FT_QCLA1, 2)))
    fields = list(vars(rep).values())
    assert ResourceReport(*fields) == ResourceReport(**vars(rep)) == rep
    assert ResourceReport("toffoli", 1, {}, 0, 0, 0).t_count is None
    assert ResourceReport("toffoli", 1, {}, 0, 0, 0).t_depth is None
    with pytest.raises(TypeError):
        Register("X")
    with pytest.raises(TypeError):
        Circuit(nope=1)


@pytest.mark.parametrize("size, inits, message", [
    (-1, None, "register 'R' size -1 is not an int >= 0"),
    (1.0, None, "register 'R' size 1.0 is not an int >= 0"),
    (True, None, "register 'R' size True is not an int >= 0"),
    ("2", None, "register 'R' size '2' is not an int >= 0"),
    (2, [ZERO], "register 'R': 1 inits for 2 qubits"),
    (0, [ZERO], "register 'R': 1 inits for 0 qubits"),
])
def test_register_checks_keep_their_messages(size, inits, message):
    with pytest.raises(CircuitError) as info:
        Register("R", size, inits)
    assert str(info.value) == message


def test_equality_compares_the_fields():
    circ = build(Design.IN_FT_QCLA2, 3)
    assert circ == build(Design.IN_FT_QCLA2, 3)
    assert circ != build(Design.IN_FT_QCLA1, 3)
    assert Circuit() == Circuit() != Circuit(num_cbits=1)
    assert Register("A", 1) != Register("A", 1, [ZERO])
    assert count(circ) == count(build(Design.IN_FT_QCLA2, 3)) != count(lower(circ))
    # as a dataclass's, equality holds only between two records of one type
    assert Circuit() != SimpleNamespace(**vars(Circuit()))
    assert SimpleNamespace(name="A", size=1, inits=None) != Register("A", 1)
    for record in (Circuit(), Register("A", 1), count(circ)):
        with pytest.raises(TypeError):
            hash(record)


def test_repr_prints_the_fields_in_order():
    assert repr(Register("A", 2)) == "Register(name='A', size=2, inits=None)"
    assert repr(Circuit()) == (
        "Circuit(registers={}, gates=[], level=<Level.TOFFOLI: 'toffoli'>, num_cbits=0, "
        "labels={}, ancilla_register='anc')")
    assert repr(ResourceReport("toffoli", 3, {"not": 1}, 0, 0, 1)) == (
        "ResourceReport(level='toffoli', qubit_count=3, gate_histogram={'not': 1}, "
        "cnot_count=0, measurement_count=0, total_depth=1, t_count=None, t_depth=None)")


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_the_fields(clone):
    circ = lower(build(Design.OUT_FT_QCLA2, 3))
    for record in (circ, circ.registers["A"], count(circ)):
        twin = clone(record)
        assert type(twin) is type(record)
        assert twin == record
        assert list(vars(twin)) == list(vars(record))
