"""Reversible simulator: semantics, contract enforcement, exhaustive checks."""

import pytest

from qcla.builders import Design, build
from qcla.ir import AncillaInit, QubitRef, cnot, new_circuit, not_, temp_and, uncompute

MAGIC = AncillaInit.MAGIC_A
from qcla.revsim import (
    SpentQubitUseError,
    UncomputeAssertionError,
    exhaustive_check,
    initial_state,
    random_check,
    read_labeled,
    read_register,
    run_basis,
)


def test_out_of_place_addition_and_restoration():
    circ = build(Design.OUT_FT_QCLA1, 4)
    out = run_basis(circ, initial_state(circ, {"A": 5, "B": 7}))
    assert read_labeled(circ, out, "s") == 12
    assert read_register(circ, out, "A") == 5
    assert read_register(circ, out, "B") == 7


def test_in_place_carry_out():
    circ = build(Design.IN_FT_QCLA1, 4)
    out = run_basis(circ, initial_state(circ, {"A": 15, "B": 1}))
    assert read_register(circ, out, "B") == 0  # sum bits 0..3 of 16
    assert read_labeled(circ, out, "s") == 16  # s4 set on the Z register
    assert read_register(circ, out, "A") == 15


def test_uncompute_assertion_fires_on_violation():
    circ = new_circuit([("q", 2, None), ("anc", 1, [AncillaInit.MAGIC_A])])
    q0, q1, anc = QubitRef("q", 0), QubitRef("q", 1), QubitRef("anc", 0)
    circ.append(temp_and(q0, q1, anc))
    circ.append(not_(q0))  # corrupt a control before uncomputing
    circ.append(uncompute(q0, q1, anc))
    circ.append(cnot(anc, q1))  # a later violation must not mask the first one
    with pytest.raises(UncomputeAssertionError) as info:
        run_basis(circ, initial_state(circ, {"q": 0b11}))
    assert info.value.gate_index == 2


def test_spent_qubit_use_rejected():
    circ = new_circuit([("q", 2, None), ("anc", 1, [AncillaInit.MAGIC_A])])
    q0, q1, anc = QubitRef("q", 0), QubitRef("q", 1), QubitRef("anc", 0)
    circ.append(temp_and(q0, q1, anc))
    circ.append(uncompute(q0, q1, anc))
    circ.append(cnot(anc, q0))  # spent ancilla used as a live control
    with pytest.raises(SpentQubitUseError):
        run_basis(circ, initial_state(circ, {"q": 0b11}))


def _spent_reuse(circ):
    spent = next(q for q, label in circ.labels.items() if label == "spent")
    circ.append(cnot(spent, QubitRef("A", 0)))
    return f"spent qubit {spent} used at gate {len(circ.gates) - 1}"


def _stale_and_target(circ):
    # X[1] holds sum bit s1: a live magic ancilla, nonzero on some inputs
    circ.append(temp_and(QubitRef("A", 0), QubitRef("B", 0), QubitRef("X", 1)))
    return f"AND target X[1] not fresh at gate {len(circ.gates) - 1}"


def _bad_uncompute(circ):
    a0, b0, anc = QubitRef("A", 0), QubitRef("B", 0), circ.allocate_ancilla(MAGIC)
    circ.extend([temp_and(a0, b0, anc), not_(a0), uncompute(a0, b0, anc), not_(a0)])
    return f"gate {len(circ.gates) - 2}: uncompute target {anc} wrong on"


@pytest.mark.parametrize("corrupt", [_spent_reuse, _stale_and_target, _bad_uncompute])
@pytest.mark.parametrize("check", ["exhaustive", "random"])
def test_batch_checks_report_contract_violations(monkeypatch, corrupt, check):
    """The batch checks enforce the same contract as run_basis and report it."""
    messages = []

    def corrupted_build(design, n):
        circ = build(design, n)
        messages.append(corrupt(circ))
        return circ

    monkeypatch.setattr("qcla.revsim.build", corrupted_build)
    if check == "exhaustive":
        report = exhaustive_check(Design.OUT_FT_QCLA1, 4)
    else:
        report = random_check(Design.OUT_FT_QCLA1, 16, pairs=64)
    assert not report.passed
    assert len(report.assertion_failures) == 1
    assert report.assertion_failures[0].startswith(messages[0])


def test_missing_data_register_value():
    circ = build(Design.OUT_FT_QCLA1, 2)
    with pytest.raises(ValueError, match="needs an input value"):
        initial_state(circ, {"A": 1})


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", range(1, 7))
def test_exhaustive_all_designs(design, n):
    report = exhaustive_check(design, n)
    assert report.passed, report.summary()
    assert report.total == 4**n


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", [16, 32, 64])
def test_random_pairs_large_widths(design, n):
    report = random_check(design, n, pairs=1000, seed=1)
    assert report.passed, report.summary()
    assert report.total == 1000


def test_exhaustive_cap():
    with pytest.raises(ValueError):
        exhaustive_check(Design.OUT_FT_QCLA1, 7)
