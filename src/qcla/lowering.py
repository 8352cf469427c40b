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

from operator import itemgetter
from typing import Callable, NamedTuple

from .ir import (
    AncillaInit,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Level,
    QubitRef,
    _gc_paused,
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


class _Template(NamedTuple):
    """One gadget's gate list over operand slots 0, 1, 2 (c1, c2, target).

    ``distinct`` holds each distinct gate once as (kind, operand getter,
    reads cbit): the getter picks from ``(c1, c2, target, (c1,), (c2,),
    (target,))``, so a single-qubit gate gets the shared ``(q,)`` tuple and a
    two-qubit gate a fresh one.  ``order`` maps the list of built distinct
    gates to the full gate list.
    """

    gadget: Callable[..., list[Gate]]
    distinct: tuple[tuple[GateKind, itemgetter, bool], ...]
    order: itemgetter


def _template(gadget: Callable[..., list[Gate]]) -> _Template:
    # Placeholder qubits stand for the operand slots; the gadget's optional
    # classical bit keeps its default, and any gate carrying a bit reads it.
    slots = tuple(QubitRef("slot", i) for i in range(3))
    gates = gadget(*slots)
    distinct = list(dict.fromkeys(gates))
    entries = []
    for gate in distinct:
        at = [slots.index(q) for q in gate.qubits]
        get = itemgetter(3 + at[0]) if len(at) == 1 else itemgetter(*at)
        entries.append((gate.kind, get, gate.cbit is not None))
    # every gadget has at least two gates, so ``order`` returns a tuple
    return _Template(gadget, tuple(entries), itemgetter(*map(distinct.index, gates)))


_TEMPLATES = {
    GateKind.TOFFOLI: _template(lower_toffoli),
    GateKind.TEMP_AND: _template(lower_temporary_and),
    GateKind.UNCOMPUTE: _template(lower_uncompute),
}


@_gc_paused
def lower(circ: Circuit) -> Circuit:
    """Gate-by-gate, in-order rewrite to a Clifford+T circuit.

    NOT and CNOT pass through.  Each Toffoli, temporary AND and uncompute is
    instantiated from its gadget's template, so within one gadget a repeated
    gate is one object and single-qubit gates on one qubit share one operand
    tuple; gates are immutable, so sharing is safe.  The qubit set is
    unchanged; measured T-count of the output is 7 per Toffoli plus 4 per
    temporary AND.

    The output is written straight into ``out.gates`` without
    :meth:`Circuit.extend`: the input gates were checked when they were
    built or loaded, a repeated gadget operand raises the gadget's own
    error, and classical bits are numbered here in program order.  Pauses
    the cyclic garbage collector while it runs and restores it (see
    :func:`qcla.ir._gc_paused`).
    """
    if circ.level is not Level.TOFFOLI:
        raise CircuitError("lower expects a Toffoli-level circuit")

    out = Circuit(level=Level.CLIFFORD_T, ancilla_register=circ.ancilla_register)
    NOT, CNOT = GateKind.NOT, GateKind.CNOT
    TEMP_AND, UNCOMPUTE = GateKind.TEMP_AND, GateKind.UNCOMPUTE
    new = tuple.__new__
    gates = out.gates
    outcome_bit: dict[QubitRef, int] = {}  # spent ancilla -> its measurement bit
    and_targets: set[QubitRef] = set()  # the magic-state ancillae the stream prepares
    for gate in circ.gates:
        kind = gate.kind
        if kind is NOT or kind is CNOT:
            gates.append(gate)
            continue
        template = _TEMPLATES.get(kind)
        if template is None:
            raise CircuitError(f"cannot lower gate kind {kind}")
        c1, c2, c3 = gate.qubits
        if c1 == c2 or c1 == c3 or c2 == c3:
            template.gadget(c1, c2, c3)  # raises the gadget's own CircuitError
        cbit = None
        if kind is UNCOMPUTE:
            cbit = outcome_bit[c3] = out.num_cbits
            out.num_cbits += 1
        elif kind is TEMP_AND:
            and_targets.add(c3)
            if c3 in outcome_bit:
                gates.append(cc_x(outcome_bit.pop(c3), c3))
        refs = (c1, c2, c3, (c1,), (c2,), (c3,))
        built = [
            new(Gate, (k, get(refs), cbit if reads else None))
            for k, get, reads in template.distinct
        ]
        gates += template.order(built)

    # lowering prepares each consumed magic state inline, so its ancilla starts in |0>
    for reg in circ.registers.values():
        inits = None if reg.inits is None else [
            AncillaInit.ZERO if init is AncillaInit.MAGIC_A and QubitRef(reg.name, i) in and_targets
            else init
            for i, init in enumerate(reg.inits)
        ]
        out.add_register(reg.name, reg.size, inits)
    out.labels = dict(circ.labels)
    return out
