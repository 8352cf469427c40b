"""Circuit intermediate representation shared by builders, lowering, analysis and simulators.

A circuit is a table of named qubit registers plus an ordered gate list.
Circuits carry a level tag: Toffoli-level circuits use the logical gate set
(NOT, CNOT, Toffoli, temporary-AND, uncompute) while Clifford+T circuits use
the fault-tolerant primitive set (H, T, T{dag}, S, S{dag}, Z, X, CNOT,
X-basis measurement and classically controlled Z/X).

Registers are either data registers (no declared initial state) or ancilla
registers where every qubit carries an :class:`AncillaInit` annotation.
"""

from __future__ import annotations

import functools
import gc
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

_F = TypeVar("_F", bound=Callable)


def _gc_paused(fn: _F) -> _F:
    """Run ``fn`` with the cyclic garbage collector paused, for a function that
    builds a whole gate list or walks one allocating state per gate.

    Gates are tuples of a ``GateKind`` and ``QubitRef`` tuples, which the
    collector tracks but which never form a cycle: reference counting frees
    them, and a collection during the build only re-walks the growing list.
    A walk's per-gate tuples (the depth pairs of
    :func:`qcla.resources.schedule`) would likewise set off collections that
    re-walk a circuit still young from its build.
    The collector is re-enabled on exit only if it was enabled on entry, so a
    nested call changes nothing and a caller that turned it off keeps it off.
    The ``gc`` switch is process-wide: if another thread turns the collector
    off while the call runs, the call turns it back on when it returns.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]


class CircuitError(ValueError):
    """Raised for malformed circuits: bad operands, level mismatches, etc."""


class AncillaInit(Enum):
    """Initial state annotation for ancilla qubits.

    ZERO is |0>.  MAGIC_A, a Toffoli-level init only, marks an ancilla that a
    temporary AND may target: the 4-T AND gadget consumes the magic resource
    state (|0> + e^{i pi/4}|1>)/sqrt(2), which :func:`qcla.lowering.lower`
    prepares inline from |0>, so every Clifford+T ancilla starts in |0>.
    """

    ZERO = "zero"
    MAGIC_A = "magic_a"


class Level(Enum):
    TOFFOLI = "toffoli"
    CLIFFORD_T = "cliffordt"


# reg[index]: word characters, then an index in ASCII digits without leading zeros
_RE_REF = re.compile(r"(\w+)\[(0|[1-9][0-9]*)\]")


class QubitRef(NamedTuple):
    reg: str
    index: int

    def __str__(self) -> str:
        return f"{self.reg}[{self.index}]"

    @classmethod
    def parse(cls, text: str) -> QubitRef:
        """The inverse of :meth:`__str__`; any other spelling raises ValueError."""
        m = _RE_REF.fullmatch(text)
        if m is None:
            raise ValueError(f"{text!r} is not a qubit reference reg[index]")
        return cls(m[1], int(m[2]))


class GateKind(Enum):
    """Each kind is ``(value, qubit operand count, level)``; the level is None
    for NOT and CNOT, which are legal at both levels."""

    # Toffoli-level logical gates
    NOT = ("not", 1, None)
    CNOT = ("cnot", 2, None)
    TOFFOLI = ("toffoli", 3, Level.TOFFOLI)
    TEMP_AND = ("temp_and", 3, Level.TOFFOLI)
    UNCOMPUTE = ("uncompute", 3, Level.TOFFOLI)
    # Clifford+T primitives
    H = ("h", 1, Level.CLIFFORD_T)
    T = ("t", 1, Level.CLIFFORD_T)
    TDG = ("tdg", 1, Level.CLIFFORD_T)
    S = ("s", 1, Level.CLIFFORD_T)
    SDG = ("sdg", 1, Level.CLIFFORD_T)
    Z = ("z", 1, Level.CLIFFORD_T)
    MEASURE_X = ("measure_x", 1, Level.CLIFFORD_T)
    CC_Z = ("cc_z", 2, Level.CLIFFORD_T)
    CC_X = ("cc_x", 1, Level.CLIFFORD_T)

    def __new__(cls, value: str, arity: int, level: Level | None) -> GateKind:
        kind = object.__new__(cls)
        kind._value_ = value
        kind.arity = arity
        kind.level = level
        return kind

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and skips Enum's Python-level __hash__.
    __hash__ = object.__hash__


T_KINDS = frozenset({GateKind.T, GateKind.TDG})


class Gate(NamedTuple):
    """One gate application: a kind, its qubit operands, optional classical bit.

    The classical bit is the measurement destination for MEASURE_X and the
    condition bit for CC_Z / CC_X.
    """

    kind: GateKind
    qubits: tuple[QubitRef, ...]
    cbit: int | None = None


def _maker(kind: GateKind) -> Callable[..., Gate]:
    """Return ``make(*qubits)``: ``Gate(kind, qubits)`` built as :func:`qcla.lowering.lower`
    builds gates.  :meth:`Circuit.extend` checks the operand count."""
    new = tuple.__new__

    def make(*qubits: QubitRef) -> Gate:
        return new(Gate, (kind, qubits, None))

    return make


not_ = _maker(GateKind.NOT)
cnot = _maker(GateKind.CNOT)  # (control, target)
toffoli = _maker(GateKind.TOFFOLI)  # (c1, c2, target)
temp_and = _maker(GateKind.TEMP_AND)  # (c1, c2, target)
uncompute = _maker(GateKind.UNCOMPUTE)  # (c1, c2, target)
h = _maker(GateKind.H)
t = _maker(GateKind.T)
tdg = _maker(GateKind.TDG)
s = _maker(GateKind.S)
sdg = _maker(GateKind.SDG)
z = _maker(GateKind.Z)


def measure_x(q: QubitRef, cbit: int | None = None) -> Gate:
    """H followed by a Z-basis measurement; cbit is assigned at append time."""
    return Gate(GateKind.MEASURE_X, (q,), cbit)


def cc_z(cbit: int, q1: QubitRef, q2: QubitRef) -> Gate:
    return Gate(GateKind.CC_Z, (q1, q2), cbit)


def cc_x(cbit: int, q: QubitRef) -> Gate:
    return Gate(GateKind.CC_X, (q,), cbit)


@dataclass
class Register:
    """A named block of qubits; ``inits`` is None for data registers."""

    name: str
    size: int
    inits: list[AncillaInit] | None = None

    def __post_init__(self) -> None:
        if type(self.size) is not int or self.size < 0:
            raise CircuitError(f"register {self.name!r} size {self.size!r} is not an int >= 0")
        if self.inits is not None and len(self.inits) != self.size:
            raise CircuitError(
                f"register {self.name!r}: {len(self.inits)} inits for {self.size} qubits"
            )

    @property
    def is_ancilla(self) -> bool:
        return self.inits is not None


# Wire labels.  Built circuits label every qubit: operand bits "a<i>" and
# "b<i>", sum bits "s<i>" (i in ASCII digits) and "spent" for every other
# ancilla.  Loaded circuits may carry any string.
WireNameMap = dict  # QubitRef -> str


def label_index(label: str, prefix: str = "s") -> int | None:
    """The index i of a label spelled ``prefix`` then ASCII digits, else None."""
    digits = label[len(prefix) :] if label.startswith(prefix) else ""
    return int(digits) if digits.isascii() and digits.isdigit() else None


@dataclass
class Circuit:
    """Register table + ordered gate list + level tag.

    Construction is append-only; consumers treat finished circuits as frozen.
    ``labels`` holds the final wire-name map set by the builders, identifying
    sum bits and restored operands.
    """

    registers: dict[str, Register] = field(default_factory=dict)
    gates: list[Gate] = field(default_factory=list)
    level: Level = Level.TOFFOLI
    num_cbits: int = 0
    labels: WireNameMap = field(default_factory=dict)
    ancilla_register: str = "anc"

    # -- register/qubit structure -------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return sum(r.size for r in self.registers.values())

    def qubits(self) -> Iterator[QubitRef]:
        """All qubits in register-table order (the simulator qubit order)."""
        for reg in self.registers.values():
            for i in range(reg.size):
                yield QubitRef(reg.name, i)

    def qubit_positions(self) -> dict[QubitRef, int]:
        return {q: i for i, q in enumerate(self.qubits())}

    def labeled(self, prefix: str = "s") -> dict[int, QubitRef]:
        """The qubits labelled ``prefix<i>`` (see :func:`label_index`), keyed by i.
        Raises :class:`CircuitError` when two qubits spell the same index.
        Applies :func:`label_index`'s rule inline, as every batch check reads
        all labels of its circuit."""
        out: dict[int, QubitRef] = {}
        start = len(prefix)
        for q, label in self.labels.items():
            if not label.startswith(prefix):
                continue
            digits = label[start:]
            if not (digits.isascii() and digits.isdigit()):
                continue
            i = int(digits)
            if i in out:
                raise CircuitError(f"qubits {out[i]} and {q} both carry {prefix}{i}")
            out[i] = q
        return out

    def basis_input(self, register_values: dict[str, int]) -> dict[QubitRef, int]:
        """One input bit per qubit, in register-table order: bit i of a register's
        value on its qubit i, 0 on ancilla registers given no value.  Raises
        ValueError for a data register with no value, or a value that is not an
        ``int`` (a ``bool`` is not) or does not fit."""
        bits: dict[QubitRef, int] = {}
        for reg in self.registers.values():
            value = register_values.get(reg.name)
            if reg.inits is None and value is None:
                raise ValueError(f"data register {reg.name!r} needs an input value")
            if value is not None and type(value) is not int:
                raise ValueError(f"value {value!r} for register {reg.name!r} is not an int")
            if value is not None and not 0 <= value < 2**reg.size:
                raise ValueError(f"value {value} does not fit register {reg.name!r}[{reg.size}]")
            for i in range(reg.size):
                bits[QubitRef(reg.name, i)] = (value or 0) >> i & 1
        return bits

    def init_of(self, q: QubitRef) -> AncillaInit | None:
        """The init of the register slot ``q`` resolves to (``True`` and ``1.0`` are 1)."""
        reg = self.registers[q.reg]
        return None if reg.inits is None else reg.inits[range(reg.size).index(q.index)]

    def resolves(self, q: QubitRef) -> bool:
        """Whether ``q``'s index equals one of its register's (1.5 does not)."""
        reg = self.registers.get(q.reg)
        return reg is not None and q.index in range(reg.size)

    def add_register(self, name: str, size: int, inits: list[AncillaInit] | None = None) -> None:
        """Add a register.  Its name must be an identifier other than ``c``, the
        classical register of the OpenQASM export."""
        if not name.isidentifier() or name == "c":
            raise CircuitError(f"register name {name!r} is not an identifier other than 'c'")
        if name in self.registers:
            raise CircuitError(f"duplicate register name {name!r}")
        self._check_inits(name, inits or ())
        self.registers[name] = Register(name, size, inits)

    def _check_inits(self, name: str, inits: Sequence[AncillaInit]) -> None:
        """The one rule on inits: a Clifford+T circuit holds no MAGIC_A ancilla
        (see :class:`AncillaInit`)."""
        if self.level is Level.CLIFFORD_T and AncillaInit.MAGIC_A in inits:
            raise CircuitError(f"register {name!r}: a Clifford+T ancilla is zero, not magic_a")

    # -- gate appends ---------------------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        """Validate and append one gate (see :meth:`extend`); returns self."""
        return self.extend((gate,))

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Validate a batch of gates and append it whole; returns self.

        The one validator of the circuit rules.  The gates are checked one by
        one, in order, and each against these rules in this order: the
        operand count of its kind, that every operand resolves, distinct
        operands, the gate set of the level, a magic-state ancilla as the
        target of a temporary AND, and the classical bits.  :meth:`resolves`
        runs once per distinct qubit of the batch, and the two or three
        operands of a gate are compared with each other, so no per-gate set
        is built.  A ``measure_x``
        writes bit ``num_cbits`` (assigned when its cbit is None), so
        classical bits are written once in program order and a ``cc_z`` /
        ``cc_x`` condition bit in ``[0, num_cbits)`` was measured earlier; no
        other gate carries a bit.  A bit given is an ``int``.

        The batch is atomic: on a :class:`CircuitError` nothing is appended and
        ``num_cbits`` is unchanged.  The error is the one that appending the
        gates one at a time would raise.
        """
        # a list or tuple is read in place; no per-gate copy
        batch = gates if isinstance(gates, (list, tuple)) else list(gates)
        level = self.level
        num_cbits = self.num_cbits
        resolved: set[QubitRef] = set()
        assigned = []  # (index, bit) of each measure_x given its bit here
        # an Enum class attribute is slow to look up, so read each one once
        temp_and_kind, measure_kind = GateKind.TEMP_AND, GateKind.MEASURE_X
        conditional_kinds = (GateKind.CC_Z, GateKind.CC_X)
        magic = AncillaInit.MAGIC_A
        for i, (kind, qubits, cbit) in enumerate(batch):
            if len(qubits) != kind.arity:
                raise CircuitError(
                    f"{kind.value} takes {kind.arity} qubit operands, got {len(qubits)}"
                )
            if not resolved.issuperset(qubits):
                for q in qubits:
                    if q not in resolved:
                        if not self.resolves(q):
                            raise CircuitError(
                                f"operand {q} does not resolve in the register table"
                            )
                        resolved.add(q)
            # a kind takes at most three operands, so compare them pairwise
            if len(qubits) > 1 and (
                qubits[0] == qubits[1]
                or len(qubits) == 3 and (qubits[2] == qubits[0] or qubits[2] == qubits[1])
            ):
                raise CircuitError(f"duplicate operands in gate {kind.value}")
            if kind.level is not None and kind.level is not level:
                where = "Toffoli-level" if level is Level.TOFFOLI else "Clifford+T"
                raise CircuitError(f"{kind.value} is not a {where} gate")
            if kind is temp_and_kind and self.init_of(qubits[2]) is not magic:
                raise CircuitError(f"temporary-AND target {qubits[2]} is not a magic-state ancilla")
            if kind is measure_kind:
                if cbit is None:
                    assigned.append((i, num_cbits))
                elif type(cbit) is not int or cbit != num_cbits:
                    raise CircuitError(
                        f"measure_x writes bit {cbit}; the next classical bit is {num_cbits}"
                    )
                num_cbits += 1
            elif kind in conditional_kinds:
                if type(cbit) is not int or not 0 <= cbit < num_cbits:
                    raise CircuitError(f"{kind.value} references unknown classical bit")
            elif cbit is not None:
                raise CircuitError(f"{kind.value} carries classical bit {cbit}")
        start = len(self.gates)
        self.gates += batch
        for i, bit in assigned:
            self.gates[start + i] = Gate(measure_kind, batch[i].qubits, bit)
        self.num_cbits = num_cbits
        return self

    # -- ancilla allocation ----------------------------------------------------------

    def allocate_ancilla(self, init: AncillaInit) -> QubitRef:
        """Extend the ancilla register by one qubit of the requested initial state."""
        self._check_inits(self.ancilla_register, (init,))
        if self.ancilla_register not in self.registers:
            self.add_register(self.ancilla_register, 0, [])
        reg = self.registers[self.ancilla_register]
        assert reg.inits is not None
        reg.inits.append(init)
        reg.size += 1
        return QubitRef(reg.name, reg.size - 1)

    def label_key(self, q: QubitRef) -> str:
        """The labelled qubit ``q`` spelled ``reg[i]`` by the register index it
        resolves to (``X[1.0]`` is ``X[1]``, as its operand is written): the key
        of its label in JSON and in :meth:`structural_key`.  Raises
        :class:`CircuitError` when ``q`` does not resolve."""
        if not self.resolves(q):
            raise CircuitError(f"label {self.labels[q]!r} is on unknown qubit {q}")
        return f"{q.reg}[{range(self.registers[q.reg].size).index(q.index)}]"

    def structural_key(self) -> tuple:
        """Hashable key for structural equality (registers, gates, level, labels).
        Label keys are spelled by :meth:`label_key`."""
        regs = tuple(
            (r.name, r.size, None if r.inits is None else tuple(i.value for i in r.inits))
            for r in self.registers.values()
        )
        labels = tuple(sorted((self.label_key(q), lab) for q, lab in self.labels.items()))
        return (self.level.value, regs, self.num_cbits, tuple(self.gates), labels)


def new_circuit(
    register_spec: Sequence[tuple[str, int, list[AncillaInit] | None]],
    level: Level = Level.TOFFOLI,
    ancilla_register: str = "anc",
) -> Circuit:
    """Create an empty circuit from (name, length, init-list) register specs.

    An init-list of None declares a data register; otherwise it must supply one
    :class:`AncillaInit` per qubit.
    """
    circ = Circuit(level=level, ancilla_register=ancilla_register)
    for name, size, inits in register_spec:
        circ.add_register(name, size, list(inits) if inits is not None else None)
    return circ


def load_circuit(
    level: Level,
    registers: Sequence[tuple[str, int, list[AncillaInit] | None]],
    gates: Sequence[Gate],
    num_cbits: int,
    labels: WireNameMap | None = None,
    ancilla_register: str = "anc",
) -> Circuit:
    """Build a whole circuit from plain parts and validate it.

    The one whole-circuit validator: the gates go through
    :meth:`Circuit.extend` as one batch, the declared ``num_cbits`` must
    equal the number of measured bits, and every label must name a qubit.
    The JSON and OpenQASM loaders both end here.  Raises :class:`CircuitError`.
    """
    circ = new_circuit(registers, level, ancilla_register)
    circ.extend(gates)
    if num_cbits != circ.num_cbits:
        raise CircuitError(
            f"num_cbits {num_cbits} disagrees with the {circ.num_cbits} measured bits"
        )
    for q, label in (labels or {}).items():
        if not circ.resolves(q):
            raise CircuitError(f"label {label!r} is on unknown qubit {q}")
        circ.labels[q] = label
    return circ
