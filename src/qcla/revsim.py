"""Classical basis-state execution of Toffoli-level circuits.

The executor is the one statement of what a Toffoli-level gate does; the
gadget certificates (:func:`qcla.statevec.gadget_unitary_check`) are checked
against it.  Magic-state ancillae are modeled as 0 at this level, as the
stream :func:`qcla.lowering.lower` emits starts every ancilla in |0>; a
temporary-AND overwrites its target with the AND of its controls.  Uncompute
gates assert that their target equals the AND of the two controls and then
mark the target spent (a classical qubit); later use of a spent qubit is an
error unless it is re-initialized as a fresh temporary-AND target.

One executor serves single inputs and batches: it carries one bitmask per
qubit (bit i of the mask = that qubit's value on input number i), so gates
become bitwise integer operations.  ``run_basis`` runs it on one input.  The
batch check takes a circuit and a list of packed inputs (a << n) | b and runs
them in one pass against the bit-sliced oracle ``cla_masks``; it also requires
every ancilla to end spent or 0.  ``exhaustive_check`` hands it all 2^(2n)
operand pairs of the built adder and ``random_check`` a random sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .builders import Design, build, cla_masks
from .ir import Circuit, GateKind, Level, QubitRef


class UncomputeAssertionError(AssertionError):
    """An uncompute target did not equal the AND of its controls."""

    def __init__(self, gate_index: int, message: str = ""):
        self.gate_index = gate_index
        super().__init__(message or f"uncompute assertion failed at gate {gate_index}")


class SpentQubitUseError(ValueError):
    """A measured-out (spent) qubit was used as a live operand."""

    def __init__(self, gate_index: int, qubit: QubitRef):
        self.gate_index = gate_index
        self.qubit = qubit
        super().__init__(f"spent qubit {qubit} used at gate {gate_index}")


@dataclass
class BasisState:
    """One classical bit per qubit plus per-qubit spent flags."""

    bits: dict[QubitRef, int]
    spent: set[QubitRef] = field(default_factory=set)

    def copy(self) -> "BasisState":
        return BasisState(dict(self.bits), set(self.spent))


def initial_state(circ: Circuit, register_values: dict[str, int]) -> BasisState:
    """Build the input state: data registers from the given integers, ancillae 0."""
    return BasisState(circ.basis_input(register_values))


def _run_masks(
    circ: Circuit,
    bits: dict[QubitRef, int],
    spent: set[QubitRef],
    full: int,
    failures: list[Exception],
) -> bool:
    """Bit-parallel executor: ``bits`` holds one integer mask per qubit.

    Bit i of a mask is the qubit's value on input slot i, and ``full`` has
    one bit set per slot, so every gate is a bitwise integer operation over
    all inputs at once.  ``bits`` and ``spent`` are updated in place.  Every
    contract violation is appended to ``failures`` in gate order.  A failed
    uncompute (with the number of failing inputs) lets the run go on; a
    spent qubit used again or an AND target that is not fresh ends it.
    Returns whether the run reached the end of the gate list.
    """
    if circ.level is not Level.TOFFOLI:
        raise ValueError("the reversible simulator executes Toffoli-level circuits only")
    # an Enum class attribute is slow to look up, so read each one once
    NOT, CNOT, TOFFOLI = GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI
    TEMP_AND, UNCOMPUTE = GateKind.TEMP_AND, GateKind.UNCOMPUTE
    for idx, gate in enumerate(circ.gates):
        kind = gate.kind
        if kind is TEMP_AND:
            c1, c2, tgt = gate.qubits
            for q in (c1, c2):
                if q in spent:
                    failures.append(SpentQubitUseError(idx, q))
                    return False
            if tgt in spent:
                spent.discard(tgt)  # allocator re-initialized this qubit
            elif bits[tgt]:
                failures.append(
                    UncomputeAssertionError(idx, f"AND target {tgt} not fresh at gate {idx}")
                )
                return False
            bits[tgt] = bits[c1] & bits[c2]
            continue
        for q in gate.qubits:
            if q in spent:
                failures.append(SpentQubitUseError(idx, q))
                return False
        if kind is NOT:
            bits[gate.qubits[0]] ^= full
        elif kind is CNOT:
            c, tq = gate.qubits
            bits[tq] ^= bits[c]
        elif kind is TOFFOLI:
            c1, c2, tq = gate.qubits
            bits[tq] ^= bits[c1] & bits[c2]
        elif kind is UNCOMPUTE:
            c1, c2, tq = gate.qubits
            bad = bits[tq] ^ (bits[c1] & bits[c2])
            if bad:
                failures.append(
                    UncomputeAssertionError(
                        idx,
                        f"gate {idx}: uncompute target {tq} wrong on "
                        f"{bad.bit_count()} inputs",
                    )
                )
            spent.add(tq)
        else:
            raise ValueError(f"unexpected gate kind {kind} at Toffoli level")
    return True


def run_basis(circ: Circuit, state: BasisState) -> BasisState:
    """Execute the circuit on a basis state; returns the final state.

    Linear in gate count.  Raises the first contract violation in gate order,
    an UncomputeAssertionError or SpentQubitUseError (builder bugs).
    """
    st = state.copy()
    failures: list[Exception] = []
    _run_masks(circ, st.bits, st.spent, 1, failures)
    if failures:
        raise failures[0]
    return st


def read_register(circ: Circuit, state: BasisState, name: str) -> int:
    reg = circ.registers[name]
    return sum(state.bits[QubitRef(name, i)] << i for i in range(reg.size))


def read_labeled(circ: Circuit, state: BasisState, prefix: str = "s") -> int:
    """Read the integer spelled by the qubits labelled prefix0, prefix1, ...
    (:meth:`Circuit.labeled`)."""
    return sum(state.bits[q] << i for i, q in circ.labeled(prefix).items())


@dataclass
class CheckReport:
    design: str
    n: int
    total: int
    wrong: int  # input slots whose sum was wrong; mismatches shows at most 8
    mismatches: list[tuple[int, int, int, int]]  # (a, b, expected, got)
    assertion_failures: list[str]
    restoration_failures: list[str]

    @property
    def passed(self) -> bool:
        return not (self.wrong or self.assertion_failures or self.restoration_failures)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        first = (self.assertion_failures + self.restoration_failures)[:1]
        detail = f" ({first[0]})" if first else ""
        return f"{self.design} n={self.n}: {self.total - self.wrong}/{self.total} {status}{detail}"


def _pack(rows: Sequence[int], width: int) -> tuple[int, int]:
    """Pack the rows into one integer, row j in field j: (packed, field bits).

    Each field is ``width`` bits rounded up to whole bytes (at least one), so
    the packing is one ``to_bytes`` per row and one ``int.from_bytes`` of
    their join.  Every row must be a non-negative integer of at most
    ``width`` bits (else ValueError).
    """
    if rows and (min(rows) < 0 or max(rows) >> width):
        raise ValueError(f"transpose row does not fit in {width} bits")
    size = (width + 7) // 8 or 1
    data = b"".join([r.to_bytes(size, "little") for r in rows])
    return int.from_bytes(data, "little"), 8 * size


def _columns(packed: int, field: int, rows: int, width: int) -> list[int]:
    """Bit k of every field of ``packed``, for k < width: bit j of result[k]
    is bit k of field j.  Each column is one strided slice of the binary
    text, which lists the fields from the last to the first."""
    if not rows:
        return [0] * width
    text = format(packed, f"0{rows * field}b")
    return [int(text[field - 1 - k :: field], 2) for k in range(width)]


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit j of result[i] is bit i of rows[j].

    Every row must be a non-negative integer of at most ``width`` bits.  It
    turns sum-bit masks into per-slot values.
    """
    return _columns(*_pack(rows, width), len(rows), width)


def _check_batch(circ: Circuit, name: str, inputs: Sequence[int]) -> CheckReport:
    """Run packed input ``inputs[i] = (a << n) | b`` on slot i, all in one pass.

    n is the size of register A.  The inputs are packed into one integer, a
    field per slot, and each qubit's slot mask is one column of it.  The
    bit-sliced oracle ``cla_masks`` must agree with native a + b, one
    addition of the a and b views of the packed integer (else
    AssertionError).  The sum-bit masks are compared with it; every wrong
    slot is counted, and the first 8 become (a, b, a + b, got) rows in slot
    order.  ``s`` labels that do not spell bits 0..n, contract violations
    that stop the run, failed uncomputes and ancillae left dirty are
    assertion failures; with unreadable sums every slot counts as wrong.  A
    must come back, and so must B unless the ``s`` labels sit on register B.
    """
    n = circ.registers["A"].size
    low = (1 << n) - 1
    total = len(inputs)
    packed, field = _pack(inputs, 2 * n)
    masks = _columns(packed, field, total, 2 * n)
    a_masks, b_masks = masks[n:], masks[:n]
    expected = cla_masks(a_masks, b_masks)
    # a + b < 2^(n+1) <= 2^field, so no carry crosses into the next field
    lows = int.from_bytes(low.to_bytes(field // 8, "little") * total, "little")
    native = _columns((packed >> n & lows) + (packed & lows), field, total, n + 1)
    oracle_bad = 0
    for want, nat in zip(expected, native):
        oracle_bad |= want ^ nat
    if oracle_bad:
        i = inputs[(oracle_bad & -oracle_bad).bit_length() - 1]
        raise AssertionError(f"oracle self-check failed at a={i >> n} b={i & low}")

    sums = circ.labeled("s")
    readable = set(sums) == set(range(n + 1))
    assertions = [] if readable else [f"sum labels cover bits {sorted(sums)}, not 0..{n}"]
    bits = dict.fromkeys(circ.qubits(), 0)
    for i in range(n):
        bits[QubitRef("A", i)] = a_masks[i]
        bits[QubitRef("B", i)] = b_masks[i]
    spent: set[QubitRef] = set()
    failures: list[Exception] = []
    finished = _run_masks(circ, bits, spent, (1 << total) - 1, failures)

    assertions += [str(f) for f in failures]
    if finished:  # every ancilla not holding a sum bit must end spent or 0
        outputs = set(sums.values())
        ancillae = {reg.name for reg in circ.registers.values() if reg.is_ancilla}
        for q, mask in bits.items():
            if mask and q.reg in ancillae and q not in spent and q not in outputs:
                assertions.append(
                    f"ancilla {q} ({circ.labels.get(q, 'unlabelled')}) not clean on "
                    f"{mask.bit_count()} inputs"
                )
    restored = {"A": a_masks}
    if all(q.reg != "B" for q in sums.values()):
        restored["B"] = b_masks
    restoration = [
        f"{reg}[{i}] not restored"
        for reg, reg_masks in restored.items()
        for i in range(n)
        if bits[QubitRef(reg, i)] != reg_masks[i]
    ]
    mismatches: list[tuple[int, int, int, int]] = []
    wrong = total
    if readable:
        got = [bits[sums[j]] for j in range(n + 1)]
        bad = 0
        for mask, want in zip(got, expected):
            bad |= mask ^ want
        wrong = bad.bit_count()
        got_values = _transpose(got, total) if bad else []
        while bad and len(mismatches) < 8:
            slot = (bad & -bad).bit_length() - 1
            a, b = inputs[slot] >> n, inputs[slot] & low
            mismatches.append((a, b, a + b, got_values[slot]))
            bad &= bad - 1
    return CheckReport(name, n, total, wrong, mismatches, assertions, restoration)


def exhaustive_check(design: Design, n: int, max_n: int = 6) -> CheckReport:
    """Run every (a, b) pair through the built circuit and compare with the oracle.

    The oracle is the bit-sliced generate/propagate recurrence, cross-checked
    against native addition.  Also verifies operand restoration, clean
    ancillae and that the final wire-name map points at the right qubits.
    """
    if n > max_n:
        raise ValueError(f"exhaustive check capped at n = {max_n}")
    return _check_batch(build(design, n), design.value, range(4**n))


def random_check(design: Design, n: int, pairs: int, seed: int = 42) -> CheckReport:
    """Check ``pairs`` random operand pairs at width n in one bit-parallel pass;
    ``pairs`` must be at least 1 (ValueError)."""
    import random as _random

    if pairs <= 0:
        raise ValueError(f"random check needs at least one pair, got {pairs}")
    rng = _random.Random(seed)
    # a, then b, for each pair: a seed keeps its samples
    inputs = [rng.randrange(2**n) << n | rng.randrange(2**n) for _ in range(pairs)]
    return _check_batch(build(design, n), design.value, inputs)
