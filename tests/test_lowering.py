"""Lowering: gadget gate sequences, T-count arithmetic, structural preservation,
and ``lift``, its inverse."""

import pytest
from conftest import replaced
from hypothesis import given, settings, strategies as st

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
    h,
    load_circuit,
    new_circuit,
    t,
    temp_and,
    toffoli,
    uncompute,
)
from qcla.jsonio import from_json, to_json
from qcla.lowering import GADGETS, lift, lower, lower_temporary_and, lower_toffoli, lower_uncompute
from qcla.qasm import parse_qasm3, to_qasm3
from qcla.revsim import (
    SpentQubitUseError,
    UncomputeAssertionError,
    _check_batch,
    initial_state,
    run_basis,
)
from qcla.statevec import AllBranches, simulate

Q = [QubitRef("q", i) for i in range(4)]


def _t_count(gates):
    return sum(1 for g in gates if g.kind in T_KINDS)


def test_toffoli_gadget_has_seven_t():
    assert _t_count(lower_toffoli(Q[0], Q[1], Q[2])) == 7


def test_toffoli_gadget_rejects_duplicates():
    with pytest.raises(CircuitError):
        lower_toffoli(Q[0], Q[0], Q[2])


def test_and_gadget_has_four_t():
    gates = lower_temporary_and(Q[0], Q[1], Q[2])
    assert _t_count(gates) == 4
    # inline magic-state preparation comes first
    assert [g.kind for g in gates[:2]] == [GateKind.H, GateKind.T]


def test_uncompute_gadget_zero_t_one_measurement():
    gates = lower_uncompute(Q[0], Q[1], Q[2], cbit=0)
    assert _t_count(gates) == 0
    assert [g.kind for g in gates] == [GateKind.MEASURE_X, GateKind.CC_Z]


def test_lower_mixed_circuit_t_count_11():
    circ = new_circuit([("q", 4, None), ("anc", 2, [AncillaInit.ZERO] * 2)])
    anc = [QubitRef("anc", i) for i in range(2)]
    circ.append(toffoli(Q[0], Q[1], Q[2]))
    circ.append(temp_and(Q[0], Q[1], anc[0]))
    circ.append(uncompute(Q[0], Q[1], anc[0]))
    lowered = lower(circ)
    from qcla.measure import count

    rep = count(lowered)
    assert rep.t_count == 11  # 7 + 4 + 0
    assert rep.measurement_count == 1
    assert lowered.num_cbits == 1


def test_lower_empty_circuit():
    lowered = lower(new_circuit([("q", 1, None)]))
    assert lowered.gates == [] and lowered.level is Level.CLIFFORD_T


def test_lower_keeps_the_register_table_with_every_ancilla_zero():
    circ = build(Design.OUT_FT_QCLA1, 4)
    lowered = lower(circ)
    assert lowered.num_qubits == circ.num_qubits
    assert [r.name for r in lowered.registers.values()] == [
        r.name for r in circ.registers.values()
    ]
    # every ancilla is ZERO at both levels: each AND prepares its magic state inline
    for reg in lowered.registers.values():
        if reg.inits is not None:
            assert all(i is AncillaInit.ZERO for i in reg.inits)


def test_lower_walks_its_input_once_and_copies_the_ancilla_inits():
    """One pass over the gates; the output copies the input's inits, so every
    ancilla starts in |0>, AND target or not."""

    class Walked(list):
        walks = 0

        def __iter__(self):
            Walked.walks += 1
            return super().__iter__()

    circ = new_circuit([("A", 2, None), ("X", 3, [AncillaInit.ZERO] * 3)])
    circ.extend([temp_and(QubitRef("A", 0), QubitRef("A", 1), QubitRef("X", 2.0))])
    circ.gates = Walked(circ.gates)
    lowered = lower(circ)
    assert Walked.walks == 1
    assert lowered.registers["X"].inits == [AncillaInit.ZERO] * 3


def _agrees_with_revsim(circ, values):
    """Label every qubit by its ``run_basis`` result (``spent`` for the
    measured-out ones) and check each branch of the lowered stream reads the
    same; False when ``run_basis`` breaks a gadget contract on ``values``."""
    try:
        final = run_basis(circ, initial_state(circ, values))
    except (SpentQubitUseError, UncomputeAssertionError):
        return False
    circ.labels = {q: "spent" if q in final.spent else f"w{i}" for i, q in enumerate(circ.qubits())}
    want = {circ.labels[q]: bit for q, bit in final.bits.items() if q not in final.spent}
    for branch in simulate(lower(circ), values, AllBranches()):
        assert branch.readout == want
    return True


_LOGICAL_KINDS = [k for k in GateKind if k.level in (None, Level.TOFFOLI)]


@st.composite
def _small_toffoli_level_circuits(draw):
    """1-3 data qubits, 1-3 ancillae and up to 10 logical gates; a temporary
    AND targets an ancilla.  Returns the circuit and an input."""
    data, anc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    circ = new_circuit([("D", data, None), ("M", anc, [AncillaInit.ZERO] * anc)])
    qubits = list(circ.qubits())
    ancillae = qubits[data:]
    kinds = [k for k in _LOGICAL_KINDS if k.arity <= len(qubits)]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind is GateKind.TEMP_AND:
            target = draw(st.sampled_from(ancillae))
            rest = [q for q in qubits if q != target]
            controls = draw(st.lists(st.sampled_from(rest), min_size=2, max_size=2, unique=True))
            operands = [*controls, target]
        else:
            operands = draw(st.lists(st.sampled_from(qubits), min_size=kind.arity,
                                     max_size=kind.arity, unique=True))
        circ.append(Gate(kind, tuple(operands)))
    return circ, {"D": draw(st.integers(0, 2**data - 1))}


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_small_toffoli_level_circuits())
def test_lowering_agrees_with_the_toffoli_level(case):
    """On an input where ``run_basis`` keeps every gadget contract, every
    measurement branch of the lowered stream reads each qubit that is not
    measured out as ``run_basis`` does."""
    circ, values = case
    _agrees_with_revsim(circ, values)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_small_toffoli_level_circuits())
def test_lift_inverts_lower_on_random_circuits(case):
    """``lower(lift(s)) == s`` on every lowered random circuit, and the lift is
    the circuit that was lowered."""
    circ, _values = case
    stream = lower(circ)
    lifted = lift(stream)
    assert lower(lifted).structural_key() == stream.structural_key()
    assert lifted.structural_key() == circ.structural_key()


@pytest.mark.parametrize("design", list(Design))
def test_lift_inverts_lower_on_the_adders(design):
    for n in [*range(1, 17), 64, 256]:
        circ = build(design, n)
        assert lift(lower(circ)).structural_key() == circ.structural_key(), n


@pytest.mark.parametrize("design", list(Design))
def test_lift_reads_a_reloaded_stream(design):
    """A JSON reload of a lowered adder lifts to the built adder; an OpenQASM
    reload, which carries no labels, lifts to it without its labels."""
    circ = build(design, 5)
    stream = lower(circ)
    assert lift(from_json(to_json(stream))).structural_key() == circ.structural_key()
    bare = replaced(circ, labels={})
    assert lift(parse_qasm3(to_qasm3(stream))).structural_key() == bare.structural_key()


def _edited(stream, edit):
    gates = list(stream.gates)
    edit(gates)
    return replaced(stream, gates=gates)


def _first(gates, kind):
    return next(i for i, g in enumerate(gates) if g.kind is kind)


def _swap_bits(gates, kind):
    """Swap the classical bits of the first two gates of ``kind``."""
    i, j = [k for k, g in enumerate(gates) if g.kind is kind][:2]
    gates[i], gates[j] = gates[i]._replace(cbit=gates[j].cbit), gates[j]._replace(cbit=gates[i].cbit)


def _swap_operands(gates, i):
    """Swap the two operands of gate i."""
    gates[i] = gates[i]._replace(qubits=gates[i].qubits[::-1])


_IN1 = lower(build(Design.IN_FT_QCLA1, 4))
_RESET = _first(_IN1.gates, GateKind.CC_X)
# just after the uncompute whose bit the first reset reads
_EARLY = 2 + next(i for i, g in enumerate(_IN1.gates)
                  if g.kind is GateKind.MEASURE_X and g.cbit == _IN1.gates[_RESET].cbit)
_LAST_MEASURE = max(i for i, g in enumerate(_IN1.gates) if g.kind is GateKind.MEASURE_X)
_OUT2_TOFFOLI = build(Design.OUT_FT_QCLA2, 4)
_OUT2 = lower(_OUT2_TOFFOLI)
# gate 4 of the first Toffoli window, a CNOT at none of the row's heads; the
# window starts where the lowering of the gates before its Toffoli ends
_INNER = 4 + len(lower(replaced(
    _OUT2_TOFFOLI, gates=_OUT2_TOFFOLI.gates[:_first(_OUT2_TOFFOLI.gates, GateKind.TOFFOLI)]
)).gates)


@pytest.mark.parametrize("stream, edit, message", [
    (_IN1, lambda g: g.insert(0, t(QubitRef("A", 0))), r"gate 0 \(t\) starts no gadget"),
    (_IN1, lambda g: g.pop(1), r"gate 0 \(h\) starts no gadget"),
    (_IN1, lambda g: g.pop(_RESET), rf"lowering of its lift at gate {_RESET}$"),
    (_IN1, lambda g: g.insert(_EARLY, g.pop(_RESET)), rf"lowering of its lift at gate {_EARLY}$"),
    (_IN1, lambda g: _swap_bits(g, GateKind.MEASURE_X), r"lowering of its lift at gate \d+$"),
    (_IN1, lambda g: _swap_bits(g, GateKind.CC_Z), r"lowering of its lift at gate \d+$"),
    (_OUT2, lambda g: _swap_operands(g, _INNER), r"lowering of its lift at gate 72$"),
    (_IN1, lambda g: g.__delitem__(slice(_LAST_MEASURE + 1, None)),
     r"gate 183 \(measure_x\) starts no gadget"),
], ids=["stray-t", "gadget-gate-deleted", "reset-removed", "reset-moved",
        "measure-bits-swapped", "cc-z-bits-swapped", "inner-gate-operands-swapped",
        "cut-after-the-last-measure"])
def test_lift_refuses_what_lower_does_not_emit(stream, edit, message):
    with pytest.raises(CircuitError, match=message):
        lift(_edited(stream, edit))


def test_lift_refuses_a_toffoli_level_circuit():
    with pytest.raises(CircuitError, match="lift expects a Clifford\\+T circuit"):
        lift(build(Design.OUT_FT_QCLA1, 2))


def test_every_single_gate_deletion_is_caught():
    """Each deletion of one gate from a lowered adder at n = 3 is refused by
    ``lift`` or makes the lifted circuit fail the batch check on all 64 inputs."""
    caught = total = 0
    for design in Design:
        stream = lower(build(design, 3))
        for k in range(len(stream.gates)):
            total += 1
            try:
                lifted = lift(_edited(stream, lambda g: g.pop(k)))
            except CircuitError:
                caught += 1
                continue
            caught += not _check_batch(lifted, design.value, range(64)).passed
    assert caught == total == 363


def test_lower_requires_toffoli_level():
    with pytest.raises(CircuitError):
        lower(new_circuit([("q", 1, None)], level=Level.CLIFFORD_T))


@pytest.mark.parametrize("design", list(Design))
def test_t_count_additivity(design):
    """T-count of the lowered circuit is exactly 7 per Toffoli + 4 per AND."""
    for n in (1, 3, 6, 13):
        circ = build(design, n)
        toffolis = sum(1 for g in circ.gates if g.kind is GateKind.TOFFOLI)
        ands = sum(1 for g in circ.gates if g.kind is GateKind.TEMP_AND)
        from qcla.measure import count

        assert count(lower(circ)).t_count == 7 * toffolis + 4 * ands


def test_reused_ancillae_get_reset_gates():
    """In-place designs reset re-initialized ancillae with a conditioned X."""
    lowered = lower(build(Design.IN_FT_QCLA1, 8))
    resets = [g for g in lowered.gates if g.kind is GateKind.CC_X]
    assert resets, "expected conditional resets for reused ancillae"
    # a reset must follow the measurement whose bit conditions it
    measured_bits = set()
    for g in lowered.gates:
        if g.kind is GateKind.MEASURE_X:
            measured_bits.add(g.cbit)
        elif g.kind is GateKind.CC_X:
            assert g.cbit in measured_bits


def test_out_of_place_has_no_resets():
    lowered = lower(build(Design.OUT_FT_QCLA1, 8))
    assert not any(g.kind is GateKind.CC_X for g in lowered.gates)


@pytest.mark.parametrize("design", list(Design))
def test_lowered_stream_passes_load_circuit(design):
    """`lower` skips Circuit.extend; replaying its output through the validator
    must give the same circuit."""
    for n in range(1, 17):
        lowered = lower(build(design, n))
        registers = [(r.name, r.size, r.inits) for r in lowered.registers.values()]
        replay = load_circuit(
            lowered.level, registers, lowered.gates, lowered.num_cbits,
            lowered.labels, lowered.ancilla_register,
        )
        assert replay.structural_key() == lowered.structural_key()


def _reference_lowering(circ):
    """Lowering by concatenating the gadget functions' own gate lists: NOT and
    CNOT pass through, and a reused AND target is reset by ``cc_x`` on the bit
    of its last uncompute.  Returns (gates, num_cbits)."""
    gates = []
    outcome_bit = {}
    num_cbits = 0
    for gate in circ.gates:
        if gate.kind in (GateKind.NOT, GateKind.CNOT):
            gates.append(gate)
        elif gate.kind is GateKind.TOFFOLI:
            gates += lower_toffoli(*gate.qubits)
        elif gate.kind is GateKind.TEMP_AND:
            anc = gate.qubits[2]
            if anc in outcome_bit:
                gates.append(cc_x(outcome_bit.pop(anc), anc))
            gates += lower_temporary_and(*gate.qubits)
        elif gate.kind is GateKind.UNCOMPUTE:
            outcome_bit[gate.qubits[2]] = num_cbits
            gates += lower_uncompute(*gate.qubits, num_cbits)
            num_cbits += 1
    return gates, num_cbits


@pytest.mark.parametrize("design", list(Design))
def test_lower_matches_the_gadget_functions(design):
    """The template path emits exactly the gadget functions' gate lists."""
    for n in [*range(1, 17), 64, 256]:
        circ = build(design, n)
        lowered = lower(circ)
        gates, num_cbits = _reference_lowering(circ)
        assert lowered.gates == gates
        assert lowered.num_cbits == num_cbits


@pytest.mark.parametrize(
    "kind, size, distinct, t_gates",
    [(GateKind.TOFFOLI, 16, 10, 7), (GateKind.TEMP_AND, 13, 9, 4), (GateKind.UNCOMPUTE, 2, 2, 0)],
)
def test_gadget_templates(kind, size, distinct, t_gates):
    """Each row's template spells its gadget's gate list from its distinct gates."""
    row = GADGETS[kind]
    gates = row.gadget(*Q[:3])
    assert len(gates) == size and _t_count(gates) == t_gates == row.t_cost
    assert len(row.distinct) == distinct == len(set(gates))
    assert len(row.order(range(distinct))) == size


@pytest.mark.parametrize(
    "kind, message",
    [
        (GateKind.TOFFOLI, "Toffoli operands must be distinct"),
        (GateKind.TEMP_AND, "temporary-AND operands must be distinct"),
        (GateKind.UNCOMPUTE, "uncompute operands must be distinct"),
    ],
)
@pytest.mark.parametrize("operands", [(0, 0, 2), (0, 1, 0), (0, 1, 1)])
def test_lower_raises_the_gadget_error_on_repeated_operands(kind, message, operands):
    # planted in the gate list directly: Circuit.extend would refuse it
    circ = new_circuit([("q", 4, [AncillaInit.ZERO] * 4)])
    circ.gates.append(Gate(kind, tuple(Q[i] for i in operands)))
    with pytest.raises(CircuitError, match=message):
        lower(circ)


def test_lower_rejects_a_planted_clifford_t_gate():
    circ = new_circuit([("q", 4, None)])
    circ.gates.append(h(Q[0]))
    with pytest.raises(CircuitError, match="cannot lower gate kind"):
        lower(circ)


def test_lower_shares_repeated_gates_and_operand_tuples():
    """Gates are immutable, so a template's repeated gate is one object and
    single-qubit gates on one qubit share one operand tuple."""
    circ = new_circuit([("q", 4, None)])
    circ.append(toffoli(Q[0], Q[1], Q[2]))
    gates = lower(circ).gates
    assert gates[0] is gates[-1]  # the H sandwich on the target
    assert gates[0].qubits is gates[3].qubits  # H and T on the target
