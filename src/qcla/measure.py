"""Resource measurement: the gate histogram, T-count and ASAP depths of a circuit.

What ``import qcla`` needs to cost a circuit, apart from the closed forms,
the cost rule and the savings table, which :mod:`qcla.resources` holds.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from operator import itemgetter

from .ir import T_KINDS, Circuit, GateKind, Level, _gc_paused, _Record


class ResourceReport(_Record):
    """Measured resources of one circuit.

    T fields are None for Toffoli-level circuits (no T gates exist yet);
    depth is reported at both levels, counting each logical gate as one unit
    at Toffoli level.
    """

    def __init__(
        self,
        level: str,
        qubit_count: int,
        gate_histogram: dict[str, int],
        cnot_count: int,
        measurement_count: int,
        total_depth: int,
        t_count: int | None = None,
        t_depth: int | None = None,
    ) -> None:
        self.level = level
        self.qubit_count = qubit_count
        self.gate_histogram = gate_histogram
        self.cnot_count = cnot_count
        self.measurement_count = measurement_count
        self.total_depth = total_depth
        self.t_count = t_count
        self.t_depth = t_depth


@_gc_paused
def schedule(circ: Circuit) -> tuple[int, int]:
    """ASAP layering: (total_depth, t_depth).

    A gate's layer is one past the latest layer of any gate sharing a qubit,
    or of the measurement producing a classical bit it is conditioned on.
    t_depth is the depth of the T-gate dependency cone: T and T-dagger cost
    one T layer, every other gate is free but still synchronizes its
    operands (the usual T-depth with free Clifford gates).

    One walk over the gates keeps one mutable ``[layer, cone]`` pair per
    qubit and updates it in place, so no tuple is allocated per gate.  It
    branches on the gate's shape: ``cc_z`` and ``cc_x`` also read their
    bit's pair; a one-qubit gate steps its own pair (only T and T-dagger
    grow the cone, and ``measure_x`` stores a snapshot of its pair for its
    bit, not the live pair); a two- or three-qubit gate compares its
    operands' pairs inline.  Gate kinds are compared by identity.  Each gate
    writes its layer and cone to every qubit it acts on and a qubit's pair
    never decreases, so both depths are the maxima over the final qubit
    pairs, read once at the end.  Pauses the cyclic garbage collector while
    it runs and restores it (see :func:`qcla.ir._gc_paused`).
    """
    T, TDG = GateKind.T, GateKind.TDG
    CC_Z, CC_X, MEASURE_X = GateKind.CC_Z, GateKind.CC_X, GateKind.MEASURE_X
    wire: defaultdict = defaultdict(partial(list, (0, 0)))
    cwire: dict[int, tuple[int, int]] = {}
    unset = (0, 0)
    for kind, qubits, cbit in circ.gates:
        if kind is CC_Z or kind is CC_X:
            layer, cone = cwire.get(cbit, unset)
            qpairs = [wire[q] for q in qubits]
            for q_layer, q_cone in qpairs:
                if q_layer > layer:
                    layer = q_layer
                if q_cone > cone:
                    cone = q_cone
            layer += 1
            for pair in qpairs:
                pair[0] = layer
                pair[1] = cone
            continue
        width = len(qubits)
        if width == 1:
            pair = wire[qubits[0]]
            pair[0] += 1
            if kind is T or kind is TDG:
                pair[1] += 1
            elif kind is MEASURE_X:
                cwire[cbit] = tuple(pair)
        elif width == 2:
            a, b = qubits
            pa, pb = wire[a], wire[b]
            layer, cone = pa
            b_layer, b_cone = pb
            if b_layer > layer:
                layer = b_layer
            if b_cone > cone:
                cone = b_cone
            pa[0] = pb[0] = layer + 1
            pa[1] = pb[1] = cone
        else:
            a, b, c = qubits
            pa, pb, pc = wire[a], wire[b], wire[c]
            layer, cone = pa
            b_layer, b_cone = pb
            c_layer, c_cone = pc
            if b_layer > layer:
                layer = b_layer
            if c_layer > layer:
                layer = c_layer
            if b_cone > cone:
                cone = b_cone
            if c_cone > cone:
                cone = c_cone
            pa[0] = pb[0] = pc[0] = layer + 1
            pa[1] = pb[1] = pc[1] = cone
    pairs = wire.values()
    return max(map(itemgetter(0), pairs), default=0), max(map(itemgetter(1), pairs), default=0)


@_gc_paused
def count(circ: Circuit) -> ResourceReport:
    """Gate histogram (keys in order of first occurrence) plus the depths of
    :func:`schedule`: one ``Counter`` pass over the gate kinds, then the
    scheduling walk.  Pauses the cyclic garbage collector while it runs and
    restores it (see :func:`qcla.ir._gc_paused`)."""
    kinds = Counter(map(itemgetter(0), circ.gates))
    hist = {kind.value: k for kind, k in kinds.items()}
    total_depth, t_depth = schedule(circ)
    report = ResourceReport(
        level=circ.level.value,
        qubit_count=circ.num_qubits,
        gate_histogram=hist,
        cnot_count=hist.get("cnot", 0),
        measurement_count=hist.get("measure_x", 0),
        total_depth=total_depth,
    )
    if circ.level is Level.CLIFFORD_T:
        report.t_count = sum(kinds[kind] for kind in T_KINDS)
        report.t_depth = t_depth
    return report
