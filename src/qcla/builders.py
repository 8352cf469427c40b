"""Generators for the four carry-lookahead adder circuit families.

Two out-of-place designs (sum lands on fresh ancillae, both operands
restored) and two in-place designs (sum overwrites the B register).  The
*1 variants realize every carry-network Toffoli as a temporary-AND /
uncompute gadget pair (4 T gates each after lowering); the *2 variants
emit plain Toffoli gates there instead (7 T gates each) to save the
gadget ancilla.

Bit 0 is the least significant bit everywhere; register qubit i holds
bit i of the operand.

Only final wire labels are written (see ``ir``).  An ancilla enters the map
as ``spent`` at its first temporary-AND and sum labels are written last, as
the map's insertion order is part of the emitted JSON bytes.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import NamedTuple

from .ir import (
    AncillaInit,
    Circuit,
    CircuitError,
    Gate,
    QubitRef,
    _gc_paused,
    cnot,
    new_circuit,
    not_,
    qubit_refs,
    temp_and,
    toffoli,
    uncompute,
)


class Design(Enum):
    """The four generated adder variants: ``(label, key, in_place,
    uses_and_pairs)``.  ``uses_and_pairs`` is True when carry merges use
    AND/uncompute pairs instead of Toffolis."""

    OUT_FT_QCLA1 = ("Out-FT-QCLA1", "out1", False, True)
    OUT_FT_QCLA2 = ("Out-FT-QCLA2", "out2", False, False)
    IN_FT_QCLA1 = ("In-FT-QCLA1", "in1", True, True)
    IN_FT_QCLA2 = ("In-FT-QCLA2", "in2", True, False)

    def __new__(cls, label: str, key: str, in_place: bool, uses_and_pairs: bool) -> Design:
        design = object.__new__(cls)
        design._value_ = label
        design.key = key
        design.in_place = in_place
        design.uses_and_pairs = uses_and_pairs
        return design


def design_from_key(key: str) -> Design:
    for d in Design:
        if d.key == key or d.value == key:
            return d
    raise ValueError(f"unknown design {key!r}")


class RoundKind(Enum):
    P = "p"
    G = "g"
    C = "c"
    P_ERASE = "p_erase"


class RoundTriple(NamedTuple):
    """Wire indices for one carry-network gate at level t, position m.

    P/G rounds: j = 2^t*m, l = j + 2^(t-1), k = j + 2^t.
    C rounds:   j = 0,     l = 2^t*m,       k = l + 2^(t-1).
    """

    t: int
    m: int
    j: int
    l: int
    k: int


def floor_log2(n: int) -> int:
    """floor(log2 n) from the bit length; exact, no floating point."""
    if n < 1:
        raise ValueError("floor_log2 requires n >= 1")
    return n.bit_length() - 1


def _span_rounds(n: int, descending: bool, first_m: int) -> list[RoundTriple]:
    # spans [j, k) with j = 2^t*m, m >= first_m: generate spans start at m = 0,
    # propagate spans at m = 1 (a propagate span from bit 0 is never needed)
    levels = range(1, floor_log2(n) + 1)
    new, out = tuple.__new__, []
    for t in (reversed(levels) if descending else levels):
        half, full = 2 ** (t - 1), 2**t
        for m in range(first_m, n // full):
            j = full * m
            out.append(new(RoundTriple, (t, m, j, j + half, j + full)))
    return out


def _c_rounds(n: int, descending: bool) -> list[RoundTriple]:
    # t up to floor(log2(2n/3)): the largest t with 3 * 2^t <= 2n
    levels = range(1, (2 * n // 3).bit_length())
    new, out = tuple.__new__, []
    for t in (reversed(levels) if descending else levels):
        half, full = 2 ** (t - 1), 2**t
        for m in range(1, (n - half) // full + 1):
            l = full * m
            out.append(new(RoundTriple, (t, m, 0, l, l + half)))
    return out


_P_SPANS = partial(_span_rounds, first_m=1)
_G_SPANS = partial(_span_rounds, first_m=0)


def round_indices(kind: RoundKind, n: int) -> list[RoundTriple]:
    """Enumerate the carry-network gate indices for one round kind at width n.

    The in-place designs' uncomputation half runs the same rounds backwards
    over operand A and the complemented sum, at width n - 1 with the level
    order flipped (see ``_ROUNDS``).
    """
    if kind not in _ROUNDS:
        raise ValueError(f"unknown round kind {kind}")
    if n < 1:
        raise ValueError("rounds require n >= 1")
    rounds, descending, _ = _ROUNDS[kind]
    return rounds(n, descending)


def cla_masks(a_masks: list[int], b_masks: list[int]) -> list[int]:
    """Classical carry-lookahead oracle, bit-sliced: the generate/propagate recurrence.

    a_masks[i] and b_masks[i] hold operand bit i, one bit per input slot.
    Computes generate g_i = a_i & b_i, propagate p_i = a_i ^ b_i, sum bits
    s_i = p_i ^ c_i and carries c_{i+1} = (p_i & c_i) | g_i on every slot at
    once, never through native addition, and returns the n + 1 sum masks.
    """
    sums, c = [], 0
    for a, b in zip(a_masks, b_masks, strict=True):
        p = a ^ b
        sums.append(p ^ c)
        c = (p & c) | (a & b)
    return sums + [c]


def cla_reference(a: int, b: int, n: int) -> int:
    """The (n+1)-bit sum a + b from :func:`cla_masks` on one input slot."""
    if n < 1:
        raise ValueError("width must be >= 1")
    if not 0 <= a < 2**n or not 0 <= b < 2**n:
        raise ValueError(f"operands must lie in [0, 2^{n})")
    bits = cla_masks([a >> i & 1 for i in range(n)], [b >> i & 1 for i in range(n)])
    return sum(bit << i for i, bit in enumerate(bits))


class _Net:
    """Shared carry-network emission helpers for one build.

    Gates are collected in ``gates``; :func:`build` validates and appends
    them in one :meth:`Circuit.extend`.  A merge writes G[j, k] over G[l, k]
    on the same line, so G[j, k] always sits on ``gen[k - 1]``, the generate
    qubit of bit k - 1; only the propagate spans need a wire map.
    """

    def __init__(self, circ: Circuit, use_pairs: bool, gen: list[QubitRef]):
        self.circ = circ
        self.use_pairs = use_pairs
        self.gen = gen  # the generate qubits, one per bit
        self.gates: list[Gate] = []
        # live propagate spans: interval (lo, hi) -> qubit holding P[lo, hi]
        self.p: dict[tuple[int, int], QubitRef] = {}
        # ancillae spent so far (in spend order), and the pool emit_and pops first
        self.spent: list[QubitRef] = []
        self.pool: list[QubitRef] = []

    def emit_and(self, c1: QubitRef, c2: QubitRef) -> QubitRef:
        """Temporary-AND onto a pooled or fresh ancilla, labelled spent."""
        q = self.pool.pop() if self.pool else self.circ.allocate_ancilla()
        self.circ.labels[q] = "spent"
        self.gates.append(temp_and(c1, c2, q))
        return q

    def span_round(self, triples: list[RoundTriple]) -> None:
        # P[j,k] = P[j,l] & P[l,k]: computed when absent, erased when present
        p, gates, spent = self.p, self.gates, self.spent
        for _, _, j, l, k in triples:
            src1, src2 = p[(j, l)], p[(l, k)]
            tgt = p.pop((j, k), None)
            if tgt is None:
                p[(j, k)] = self.emit_and(src1, src2)
            else:
                gates.append(uncompute(src1, src2, tgt))
                spent.append(tgt)

    def merge_round(self, triples: list[RoundTriple]) -> None:
        # G and C merges (C triples have j = 0): G[l,k] ^= G[j,l] & P[l,k] on
        # gen[k-1], which makes it G[j,k]; run again, the same gates undo it
        p, gen, gates, spent = self.p, self.gen, self.gates, self.spent
        for _, _, _, l, k in triples:
            c1, c2, target = gen[l - 1], p[(l, k)], gen[k - 1]
            if self.use_pairs:
                tmp = self.emit_and(c1, c2)
                gates.append(cnot(tmp, target))
                gates.append(uncompute(c1, c2, tmp))
                spent.append(tmp)
            else:
                gates.append(toffoli(c1, c2, target))

    def forward(self, A: list[QubitRef], B: list[QubitRef], first_p: int) -> None:
        """Steps 1-6 at width n: generate bits onto ``gen``, propagate bits in
        place on B from bit ``first_p`` up, then propagate spans, carry merges,
        completed carries and span erasure.  Carry c_k ends on ``gen[k - 1]``."""
        n, gen = len(A), self.gen
        for i in range(n):
            self.circ.labels[gen[i]] = "spent"
            self.gates.append(temp_and(A[i], B[i], gen[i]))
        for i in range(first_p, n):
            self.gates.append(cnot(A[i], B[i]))
            self.p[(i, i + 1)] = B[i]
        self.rounds(n)

    def rounds(self, n: int, backwards: bool = False) -> None:
        """The rounds of ``_ROUNDS`` at width n; ``backwards`` undoes them:
        rounds in reverse order, level order flipped."""
        rows = reversed(_ROUNDS.values()) if backwards else _ROUNDS.values()
        for indices, descending, emit in rows:
            emit(self, indices(n, descending != backwards))


# The carry network's rounds in forward order: kind -> (enumerator, descending
# level order, emitter).  Each emitter undoes its own gates when run again.
_ROUNDS = {
    RoundKind.P: (_P_SPANS, False, _Net.span_round),
    RoundKind.G: (_G_SPANS, False, _Net.merge_round),
    RoundKind.C: (_c_rounds, True, _Net.merge_round),
    RoundKind.P_ERASE: (_P_SPANS, True, _Net.span_round),
}


def _adder_circuit(
    n: int, out_register: tuple[str, int, list[AncillaInit]], ancilla_register: str
) -> tuple[Circuit, list[QubitRef], list[QubitRef]]:
    """A circuit with data registers A and B, labelled a<i> and b<i>
    interleaved, then ``out_register``; returns it with the A and B qubits."""
    circ = new_circuit(
        [("A", n, None), ("B", n, None), out_register], ancilla_register=ancilla_register
    )
    A, B = list(qubit_refs("A", n)), list(qubit_refs("B", n))
    for i in range(n):
        circ.labels[A[i]] = f"a{i}"
        circ.labels[B[i]] = f"b{i}"
    return circ, A, B


def _build_out_of_place(design: Design, n: int) -> tuple[Circuit, list[Gate]]:
    x_inits = [AncillaInit.ZERO] * (n + 1)
    circ, A, B = _adder_circuit(n, ("X", n + 1, x_inits), ancilla_register="Z")
    X = list(qubit_refs("X", n + 1))

    net = _Net(circ, design.uses_and_pairs, X[1:])
    gates = net.gates
    # Steps 1-6: generate bits onto the ancillae X[1..n]; propagate bits
    # from bit 1 (bit 0 is never needed); the carry network.
    net.forward(A, B, first_p=1)
    # Step 7: fold propagate bits into the carries c_i on X[i] to form sum
    # bits 1..n-1; X[0] picks up b0.
    for i in range(1, n):
        gates.append(cnot(B[i], X[i]))
    gates.append(cnot(B[0], X[0]))
    # Step 8: restore B to b, complete s0 = a0 xor b0 on X[0].
    for i in range(1, n):
        gates.append(cnot(A[i], B[i]))
    gates.append(cnot(A[0], X[0]))

    for i in range(n + 1):
        circ.labels[X[i]] = f"s{i}"
    return circ, gates


def _build_in_place(design: Design, n: int) -> tuple[Circuit, list[Gate]]:
    circ, A, B = _adder_circuit(n, ("Z", n, [AncillaInit.ZERO] * n), ancilla_register="X")
    Z = list(qubit_refs("Z", n))

    net = _Net(circ, design.uses_and_pairs, Z)
    gates = net.gates
    # Steps 1-6: generate bits onto the Z register; propagate bits from bit 0
    # (its complement seeds the uncomputation network and the final sum bit
    # s0); the carry network.
    net.forward(A, B, first_p=0)
    # Step 7: sum bits into B from the carries c_i on Z[i-1], kept for uncomputation.
    for i in range(1, n):
        gates.append(cnot(Z[i - 1], B[i]))
    # Steps 8-9: complement sum bits 0..n-2 and rebuild propagate bits of the
    # (n-1)-wide network over (a, not-s), whose carry chain equals the original.
    for i in range(n - 1):
        gates.append(not_(B[i]))
    for i in range(1, n - 1):
        gates.append(cnot(A[i], B[i]))

    if n >= 2:
        # The reverse half draws its gadget ancillae from the pool spent in the
        # forward half, one slot per gate, matching the published register sizing;
        # reversed, so that popping its end hands them out in spend order.
        net.pool, net.spent = net.spent[::-1], []
        # Steps 10-13: the carry network undone at width n-1; its propagate
        # bits are the unit spans the forward half left on B[1..n-2].
        net.rounds(n - 1, backwards=True)
        # Step 14: back to complemented sum bits.
        for i in range(1, n - 1):
            gates.append(cnot(A[i], B[i]))
        # Step 15: erase the per-bit generate values g'_i = a_i & not-s_i.
        for i in range(n - 1):
            gates.append(uncompute(A[i], B[i], Z[i]))
    # Step 16: uncomplement; B now holds sum bits 0..n-1, Z[n-1] holds s_n.
    for i in range(n - 1):
        gates.append(not_(B[i]))

    for i in range(n):
        circ.labels[B[i]] = f"s{i}"
    circ.labels[Z[n - 1]] = f"s{n}"
    return circ, gates


@_gc_paused
def build(design: Design, n: int) -> Circuit:
    """Construct the requested adder at Toffoli level for n-bit operands.

    Deterministic: identical (design, n) produce structurally identical
    circuits.  n = 1 takes the degenerate path (every carry-network round is
    empty).  Pauses the cyclic garbage collector while it runs and restores
    it (see :func:`qcla.ir._gc_paused`).
    """
    if n < 1:
        raise CircuitError("operand width must be >= 1")
    emit = _build_in_place if design.in_place else _build_out_of_place
    circ, gates = emit(design, n)
    return circ.extend(gates)
