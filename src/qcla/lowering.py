"""Rewriting Toffoli-level circuits into the Clifford+T gate set.

Three gadgets cover the Toffoli-level gates: the 7-T Toffoli, the 4-T
temporary AND, which prepares its magic resource state
(|0> + e^{i pi/4}|1>)/sqrt(2) inline from |0> with H then T, and the zero-T
measurement-based uncompute.  Each gadget function states its gate list once,
in gate order, and builds it straight-line: each distinct gate is made once
by ``tuple.__new__``, a repeated gate is one object, and the one-qubit gates
on a qubit share one operand tuple (gates are immutable, so sharing is safe).
:data:`GADGETS` holds one row per gadget: its function and declared T cost.
:func:`lower` calls the row's function once per gadget and :func:`lift`, its
inverse, recognises them.  What each Toffoli-level gate does is stated once,
by the executor of :mod:`qcla.revsim`; each row's certificate
(:func:`qcla.statevec.gadget_unitary_check`) reads it there.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable, NamedTuple

from .ir import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Level,
    QubitRef,
    _gc_paused,
    cc_x,
    load_circuit,
)

_new = tuple.__new__
H, T, TDG, S, CNOT = GateKind.H, GateKind.T, GateKind.TDG, GateKind.S, GateKind.CNOT
MEASURE_X, CC_Z = GateKind.MEASURE_X, GateKind.CC_Z


def lower_toffoli(c1: QubitRef, c2: QubitRef, target: QubitRef) -> list[Gate]:
    """7-T Toffoli decomposition; exactly the Toffoli unitary (no phase).
    16 gates, 10 of them distinct."""
    if c1 == c2 or c1 == target or c2 == target:
        raise CircuitError("Toffoli operands must be distinct")
    on1, on2, on_t = (c1,), (c2,), (target,)
    h_t = _new(Gate, (H, on_t, None))
    t_1 = _new(Gate, (T, on1, None))
    t_2 = _new(Gate, (T, on2, None))
    t_t = _new(Gate, (T, on_t, None))
    tdg_1 = _new(Gate, (TDG, on1, None))
    tdg_2 = _new(Gate, (TDG, on2, None))
    cx_12 = _new(Gate, (CNOT, (c1, c2), None))
    cx_21 = _new(Gate, (CNOT, (c2, c1), None))
    cx_t2 = _new(Gate, (CNOT, (target, c2), None))
    cx_1t = _new(Gate, (CNOT, (c1, target), None))
    return [
        h_t, t_1, t_2, t_t, cx_21, cx_t2, cx_1t, tdg_2,
        cx_12, tdg_1, tdg_2, t_t, cx_t2, cx_1t, cx_21, h_t,
    ]


def lower_temporary_and(c1: QubitRef, c2: QubitRef, anc: QubitRef) -> list[Gate]:
    """4-T temporary-AND gadget including inline magic-state preparation.

    The ancilla starts in |0>; H then T put it in the magic resource state the
    gadget consumes.  Counting that preparation T gives the gadget its 4-T
    cost; the rest maps |x, y> and the resource state to |x, y, x AND y>.
    13 gates, 9 of them distinct.
    """
    if c1 == c2 or c1 == anc or c2 == anc:
        raise CircuitError("temporary-AND operands must be distinct")
    on_a = (anc,)
    h_a = _new(Gate, (H, on_a, None))
    t_a = _new(Gate, (T, on_a, None))
    s_a = _new(Gate, (S, on_a, None))
    tdg_1 = _new(Gate, (TDG, (c1,), None))
    tdg_2 = _new(Gate, (TDG, (c2,), None))
    cx_1a = _new(Gate, (CNOT, (c1, anc), None))
    cx_2a = _new(Gate, (CNOT, (c2, anc), None))
    cx_a1 = _new(Gate, (CNOT, (anc, c1), None))
    cx_a2 = _new(Gate, (CNOT, (anc, c2), None))
    return [h_a, t_a, cx_1a, cx_2a, cx_a1, cx_a2, tdg_1, tdg_2, t_a, cx_a1, cx_a2, h_a, s_a]


def lower_uncompute(c1: QubitRef, c2: QubitRef, target: QubitRef, cbit: int = 0) -> list[Gate]:
    """Measurement-based erasure: X-basis measure, then CZ on the controls
    when the outcome is 1.  Zero T gates; one classical bit.
    """
    if c1 == c2 or c1 == target or c2 == target:
        raise CircuitError("uncompute operands must be distinct")
    return [_new(Gate, (MEASURE_X, (target,), cbit)), _new(Gate, (CC_Z, (c1, c2), cbit))]


class Gadget(NamedTuple):
    """One row of :data:`GADGETS`: a Toffoli-level kind's gadget and its facts.

    ``gadget`` builds the gate list on (c1, c2, target), and on the
    gadget's classical bit as a fourth argument when ``measures``, which
    says a gate of the list reads that bit.  The list costs ``t_cost`` T
    gates, and its first ``prep`` gates take the target from |0> to the
    magic resource state.  ``name`` names its certificate, which holds the
    gate list to what :mod:`qcla.revsim` executes for the row's kind.
    ``kinds`` lists the gate list's kinds in order, by which :func:`lift`
    picks the row for a window; ``heads`` gives, per slot, the (gate,
    operand) position of its first use in the gate list (None if unused),
    where ``lift`` reads the operands without building the gadget.
    """

    name: str
    gadget: Callable[..., list[Gate]]
    t_cost: int
    prep: int
    measures: bool
    kinds: tuple[GateKind, ...]
    heads: tuple[tuple[int, int] | None, ...]


def _gadget_row(name: str, gadget: Callable[..., list[Gate]], t_cost: int, prep: int) -> Gadget:
    # Placeholder qubits stand for the operand slots; the gadget's optional
    # classical bit keeps its default, and any gate carrying a bit reads it.
    slots = tuple(QubitRef("slot", i) for i in range(3))
    gates = gadget(*slots)
    measures = any(gate.cbit is not None for gate in gates)
    heads = tuple(
        next(((i, g.qubits.index(slot)) for i, g in enumerate(gates) if slot in g.qubits), None)
        for slot in slots
    )
    kinds = tuple(gate.kind for gate in gates)
    return Gadget(name, gadget, t_cost, prep, measures, kinds, heads)


# the temporary AND and its measurement-based uncompute: Gidney, arXiv:1709.06648
GADGETS = {
    GateKind.TOFFOLI: _gadget_row("toffoli", lower_toffoli, 7, 0),
    GateKind.TEMP_AND: _gadget_row("and", lower_temporary_and, 4, 2),
    GateKind.UNCOMPUTE: _gadget_row("and_uncompute_pair", lower_uncompute, 0, 0),
}


@_gc_paused
def lower(circ: Circuit) -> Circuit:
    """Gate-by-gate, in-order rewrite to a Clifford+T circuit.

    NOT and CNOT pass through.  Every other gate is replaced by the gate
    list of its :data:`GADGETS` row's function, called once per gadget.  A
    gadget that measures its target takes the next classical bit; one that
    prepares its target first resets a reused target by ``cc_x``.  The
    register table is copied as it is: every ancilla is ZERO, and the stream
    prepares each magic state it consumes.  The qubit set is unchanged; the
    output's T-count is the sum of the rows' costs.

    The output is written straight into ``out.gates`` without
    :meth:`Circuit.extend`: the input gates were checked when they were
    built or loaded, a repeated gadget operand raises the gadget's own
    error, a gadget gate without three operands raises here, and classical
    bits are numbered here in program order.  Pauses the cyclic garbage
    collector while it runs and restores it (see
    :func:`qcla.ir._gc_paused`).
    """
    if circ.level is not Level.TOFFOLI:
        raise CircuitError("lower expects a Toffoli-level circuit")

    out = Circuit(level=Level.CLIFFORD_T, ancilla_register=circ.ancilla_register)
    NOT, CNOT = GateKind.NOT, GateKind.CNOT
    gates = out.gates
    outcome_bit: dict[QubitRef, int] = {}  # measured target -> its measurement bit
    for gate in circ.gates:
        kind = gate.kind
        if kind is NOT or kind is CNOT:
            gates.append(gate)
            continue
        row = GADGETS.get(kind)
        if row is None:
            raise CircuitError(f"cannot lower gate kind {kind}")
        try:
            c1, c2, c3 = gate.qubits
        except ValueError:
            raise CircuitError(
                f"{kind.value} gate has {len(gate.qubits)} operands, expected 3"
            ) from None
        if row.prep and c3 in outcome_bit:
            gates.append(cc_x(outcome_bit.pop(c3), c3))
        if row.measures:
            cbit = outcome_bit[c3] = out.num_cbits
            out.num_cbits += 1
            gates += row.gadget(c1, c2, c3, cbit)
        else:
            gates += row.gadget(c1, c2, c3)

    for reg in circ.registers.values():
        out.add_register(reg.name, reg.size, None if reg.inits is None else list(reg.inits))
    out.labels = dict(circ.labels)
    return out


@_gc_paused
def lift(circ: Circuit) -> Circuit:
    """The inverse of :func:`lower`: the Toffoli-level circuit that lowers to ``circ``.

    NOT and CNOT pass through, and ``cc_x`` is skipped, as ``lower``
    re-derives it.  Every other gate must start the window of one
    :data:`GADGETS` row, picked by the kinds of the window's gates; the
    operands are read where the row's gate list first uses each slot.  The
    result goes through :func:`qcla.ir.load_circuit` with the register table
    of ``circ``.  ``lower`` of it must equal ``circ`` structurally: that
    comparison alone judges the operands, the resets, the classical bits and
    the register table.  Raises :class:`CircuitError` for a Toffoli-level
    input, a gate that starts no gadget, or a stream that is not the
    lowering of its lift.  Pauses the cyclic garbage collector while it runs
    and restores it (see :func:`qcla.ir._gc_paused`).
    """
    if circ.level is not Level.CLIFFORD_T:
        raise CircuitError("lift expects a Clifford+T circuit")
    NOT, CNOT, CC_X = GateKind.NOT, GateKind.CNOT, GateKind.CC_X
    stream = circ.gates
    kinds = [gate.kind for gate in stream]
    # a slot the gadget never uses cannot be read back, so its row matches nothing
    rows = [(lifted, row) for lifted, row in GADGETS.items() if None not in row.heads]
    gates: list[Gate] = []
    k = 0
    while k < len(stream):
        kind = kinds[k]
        if kind is NOT or kind is CNOT:
            gates.append(stream[k])
            k += 1
            continue
        if kind is CC_X:
            k += 1
            continue
        for lifted, row in rows:
            end = k + len(row.kinds)
            if tuple(kinds[k:end]) == row.kinds:
                break
        else:
            raise CircuitError(f"gate {k} ({kind.value}) starts no gadget")
        gates.append(Gate(lifted, tuple(stream[k + i].qubits[j] for i, j in row.heads)))
        k = end

    registers = [(reg.name, reg.size, reg.inits) for reg in circ.registers.values()]
    out = load_circuit(Level.TOFFOLI, registers, gates, 0, circ.labels, circ.ancilla_register)
    again = lower(out)
    if again.structural_key() != circ.structural_key():
        pairs = enumerate(zip_longest(again.gates, circ.gates))
        first = next((i for i, (want, got) in pairs if want != got), None)
        where = "in its registers or classical bits" if first is None else f"at gate {first}"
        raise CircuitError(f"the stream differs from the lowering of its lift {where}")
    return out
