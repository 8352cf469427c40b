"""Rewriting Toffoli-level circuits into the Clifford+T gate set.

Three gadgets cover the logical gates:

* Toffoli: the 7-T decomposition (H sandwich around a T/T-dagger ladder
  interleaved with CNOTs).
* Temporary AND: the 4-T gadget writing x AND y onto a magic-state ancilla.
  The magic resource state (|0> + e^{i pi/4}|1>)/sqrt(2) is prepared inline
  from |0> with H then T, so the emitted sequence is self-contained and its
  measured T-count matches the gadget's 4-T cost; the ancilla's annotation
  becomes ZERO in the lowered circuit.
* Uncompute: X-basis measurement of the target plus a classically controlled
  CZ on the controls; zero T gates.

When a spent ancilla is re-initialized for a later temporary AND (the
in-place designs reuse their forward-half ancillae), a classically
controlled X conditioned on that ancilla's measurement outcome resets it to
|0> first.
"""

from __future__ import annotations

from .ir import (
    AncillaInit,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Level,
    QubitRef,
    cc_x,
    cc_z,
    cnot,
    h,
    measure_x,
    s,
    t,
    tdg,
)


def lower_toffoli(c1: QubitRef, c2: QubitRef, target: QubitRef) -> list[Gate]:
    """7-T Toffoli decomposition; exactly the Toffoli unitary (no phase)."""
    if len({c1, c2, target}) != 3:
        raise CircuitError("Toffoli operands must be distinct")
    return [
        h(target),
        t(c1),
        t(c2),
        t(target),
        cnot(c2, c1),
        cnot(target, c2),
        cnot(c1, target),
        tdg(c2),
        cnot(c1, c2),
        tdg(c1),
        tdg(c2),
        t(target),
        cnot(target, c2),
        cnot(c1, target),
        cnot(c2, c1),
        h(target),
    ]


def _and_core(c1: QubitRef, c2: QubitRef, anc: QubitRef) -> list[Gate]:
    # maps |x, y> (x) magic-A on anc to |x, y, x AND y>; 3 explicit T gates
    return [
        cnot(c1, anc),
        cnot(c2, anc),
        cnot(anc, c1),
        cnot(anc, c2),
        tdg(c1),
        tdg(c2),
        t(anc),
        cnot(anc, c1),
        cnot(anc, c2),
        h(anc),
        s(anc),
    ]


def lower_temporary_and(c1: QubitRef, c2: QubitRef, anc: QubitRef) -> list[Gate]:
    """4-T temporary-AND gadget including inline magic-state preparation.

    The ancilla starts in |0>; H then T put it in the magic resource state the
    gadget consumes.  Counting that preparation T gives the gadget its 4-T
    cost.
    """
    if len({c1, c2, anc}) != 3:
        raise CircuitError("temporary-AND operands must be distinct")
    return [h(anc), t(anc)] + _and_core(c1, c2, anc)


def lower_uncompute(c1: QubitRef, c2: QubitRef, target: QubitRef, cbit: int = 0) -> list[Gate]:
    """Measurement-based erasure: X-basis measure, then CZ on the controls
    when the outcome is 1.  Zero T gates; one classical bit.
    """
    if len({c1, c2, target}) != 3:
        raise CircuitError("uncompute operands must be distinct")
    return [measure_x(target, cbit), cc_z(cbit, c1, c2)]


def lower(circ: Circuit) -> Circuit:
    """Gate-by-gate, in-order rewrite to a Clifford+T circuit.

    NOT and CNOT pass through.  The qubit set is unchanged; measured T-count
    of the output is 7 per Toffoli plus 4 per temporary AND.

    The output is written straight into ``out.gates`` without
    :meth:`Circuit.append`: the input gates were checked when they were
    appended or loaded, each gadget checks its own operands, and classical
    bits are numbered here in program order.
    """
    if circ.level is not Level.TOFFOLI:
        raise CircuitError("lower expects a Toffoli-level circuit")

    and_targets = {g.qubits[2] for g in circ.gates if g.kind is GateKind.TEMP_AND}

    out = Circuit(level=Level.CLIFFORD_T, ancilla_register=circ.ancilla_register)
    for reg in circ.registers.values():
        inits = None
        if reg.inits is not None:
            inits = [
                AncillaInit.ZERO
                if init is AncillaInit.MAGIC_A and QubitRef(reg.name, i) in and_targets
                else init
                for i, init in enumerate(reg.inits)
            ]
        out.add_register(reg.name, reg.size, inits)
    out.labels = dict(circ.labels)

    gates = out.gates
    outcome_bit: dict[QubitRef, int] = {}  # spent ancilla -> its measurement bit
    for gate in circ.gates:
        kind = gate.kind
        if kind in (GateKind.NOT, GateKind.CNOT):
            gates.append(gate)
        elif kind is GateKind.TOFFOLI:
            gates += lower_toffoli(*gate.qubits)
        elif kind is GateKind.TEMP_AND:
            c1, c2, anc = gate.qubits
            if anc in outcome_bit:
                gates.append(cc_x(outcome_bit.pop(anc), anc))
            gates += lower_temporary_and(c1, c2, anc)
        elif kind is GateKind.UNCOMPUTE:
            outcome_bit[gate.qubits[2]] = out.num_cbits
            gates += lower_uncompute(*gate.qubits, out.num_cbits)
            out.num_cbits += 1
        else:
            raise CircuitError(f"cannot lower gate kind {kind}")
    return out
