"""OpenQASM 3 export and subset parser for round-trip checks.

The emitter covers exactly the Clifford+T constructs this package produces;
the parser accepts that subset back.  Ancilla-register init annotations ride
in structured comments so the round trip preserves the full register table,
and magic-state ancillae (if any survive lowering) get an explicit H-then-T
preparation prologue, making exported files runnable on stock simulators.

Byte output is deterministic for a given circuit.
"""

from __future__ import annotations

import re

from .ir import AncillaInit, Circuit, Gate, GateKind, Level, QubitRef, Register, load_circuit


class QasmError(ValueError):
    pass


_BEGIN_PREP = "// begin magic-state preparation"
_END_PREP = "// end magic-state preparation"

_SIMPLE = {
    GateKind.NOT: "x",
    GateKind.H: "h",
    GateKind.T: "t",
    GateKind.TDG: "tdg",
    GateKind.S: "s",
    GateKind.SDG: "sdg",
    GateKind.Z: "z",
}


def _magic_prologue(circ: Circuit) -> list[str]:
    """The H-then-T preparation of every magic-state ancilla, in register
    order, between its two marker comments; empty when there is none."""
    lines = [
        f"{op} {QubitRef(reg.name, i)};"
        for reg in circ.registers.values()
        if reg.inits is not None
        for i, init in enumerate(reg.inits)
        if init is AncillaInit.MAGIC_A
        for op in ("h", "t")
    ]
    return [_BEGIN_PREP, *lines, _END_PREP] if lines else []


def to_qasm3(circ: Circuit) -> str:
    """Serialize a Clifford+T circuit to OpenQASM 3 text."""
    if circ.level is not Level.CLIFFORD_T:
        raise QasmError("OpenQASM export requires a Clifford+T circuit (lower first)")
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";']
    for reg in circ.registers.values():
        lines.append(f"qubit[{reg.size}] {reg.name};")
        if reg.inits is not None:
            inits = ",".join(i.value for i in reg.inits)
            lines.append(f"// ancilla {reg.name}: {inits}")
    if circ.num_cbits:
        lines.append(f"bit[{circ.num_cbits}] c;")
    lines += _magic_prologue(circ)
    for gate in circ.gates:
        kind = gate.kind
        if kind in _SIMPLE:
            lines.append(f"{_SIMPLE[kind]} {gate.qubits[0]};")
        elif kind is GateKind.CNOT:
            lines.append(f"cx {gate.qubits[0]}, {gate.qubits[1]};")
        elif kind is GateKind.CZ:
            lines.append(f"cz {gate.qubits[0]}, {gate.qubits[1]};")
        elif kind is GateKind.MEASURE_X:
            lines.append(f"h {gate.qubits[0]};")
            lines.append(f"c[{gate.cbit}] = measure {gate.qubits[0]};")
        elif kind is GateKind.CC_Z:
            lines.append(
                f"if (c[{gate.cbit}] == 1) {{ cz {gate.qubits[0]}, {gate.qubits[1]}; }}"
            )
        elif kind is GateKind.CC_X:
            lines.append(f"if (c[{gate.cbit}] == 1) {{ x {gate.qubits[0]}; }}")
        else:
            raise QasmError(f"gate kind {kind} has no OpenQASM form")
    return "\n".join(lines) + "\n"


# integers are ASCII digits only and blanks are ASCII spaces or tabs; \d and
# \s would also match the digits and spaces of other scripts
_BLANK = " \t"
_RE_QUBIT = re.compile(r"^qubit\[([0-9]+)\][ \t]+(\w+);$")
_RE_BIT = re.compile(r"^bit\[([0-9]+)\][ \t]+c;$")
# lines are stripped, so an empty ancilla register's annotation has no space after the colon
_RE_ANC = re.compile(r"^// ancilla (\w+): ?(.*)$")
_RE_ONE = re.compile(rf"^({'|'.join(_SIMPLE.values())})[ \t]+([^,;]+);$")
_RE_TWO = re.compile(r"^(cx|cz)[ \t]+([^,;]+),[ \t]*([^,;]+);$")
_RE_MEASURE = re.compile(r"^c\[([0-9]+)\][ \t]*=[ \t]*measure[ \t]+([^,;]+);$")
_RE_IF = re.compile(r"^if \(c\[([0-9]+)\] == 1\) \{ (cz|x) ([^;]+); \}$")

_NAME_TO_KIND = {name: kind for kind, name in _SIMPLE.items()}


def _ref(text: str) -> QubitRef:
    try:
        return QubitRef.parse(text.strip(_BLANK))
    except ValueError:
        raise QasmError(f"bad qubit reference {text!r}") from None


def parse_qasm3(text: str) -> Circuit:
    """Parse text produced by :func:`to_qasm3` back into a circuit.

    Only the emitted subset is understood; anything else is a parse error
    (QasmError).  An ``h`` immediately followed by a measurement of the same
    qubit folds back into the single X-basis-measurement gate it came from.
    Tokens are separated by ASCII spaces or tabs only.  Ancilla inits come
    from the ``// ancilla`` annotations alone, at most one per register; the
    magic-state preparation block must be exactly the one :func:`to_qasm3`
    writes for them.  ``bit[k] c;`` is declared at most once.  The parsed
    registers, gates and ``bit[k] c;`` count go to
    :func:`qcla.ir.load_circuit`, which applies the circuit rules
    (CircuitError).
    """
    lines = [ln.strip(_BLANK) for ln in text.splitlines() if ln.strip(_BLANK)]
    if not lines or lines[0] != "OPENQASM 3.0;":
        raise QasmError("missing OPENQASM 3.0 header")
    registers: list[Register] = []  # inits stay None for data registers
    gates: list[Gate] = []
    prologue: list[str] = []
    num_cbits: int | None = None
    in_prep = False
    i = 1
    if i < len(lines) and lines[i] == 'include "stdgates.inc";':
        i += 1
    for ln in lines[i:]:
        if in_prep or ln == _BEGIN_PREP:
            prologue.append(ln)
            in_prep = ln != _END_PREP
            continue
        m = _RE_ANC.match(ln)
        if m:
            name, inits = m.group(1), m.group(2)
            reg = next((r for r in registers if r.name == name), None)
            if reg is None:
                raise QasmError(f"ancilla annotation for unknown register {name!r}")
            if reg.inits is not None:
                raise QasmError(f"second ancilla annotation for register {name!r}")
            try:
                reg.inits = [AncillaInit(v) for v in inits.split(",")] if inits else []
            except ValueError:
                raise QasmError(f"unknown ancilla init in {ln!r}") from None
            continue
        if ln.startswith("//"):
            continue
        m = _RE_QUBIT.match(ln)
        if m:
            registers.append(Register(m.group(2), int(m.group(1))))
            continue
        m = _RE_BIT.match(ln)
        if m:
            if num_cbits is not None:
                raise QasmError("second classical register declaration")
            num_cbits = int(m.group(1))
            continue
        m = _RE_MEASURE.match(ln)
        if m:
            q = _ref(m.group(2))
            if not gates or gates[-1] != Gate(GateKind.H, (q,)):
                raise QasmError("bare measurement without preceding h (not in emitted subset)")
            gates[-1] = Gate(GateKind.MEASURE_X, (q,), int(m.group(1)))
            continue
        m = _RE_ONE.match(ln)
        if m:
            gates.append(Gate(_NAME_TO_KIND[m.group(1)], (_ref(m.group(2)),)))
            continue
        m = _RE_TWO.match(ln)
        if m:
            kind = GateKind.CNOT if m.group(1) == "cx" else GateKind.CZ
            gates.append(Gate(kind, (_ref(m.group(2)), _ref(m.group(3)))))
            continue
        m = _RE_IF.match(ln)
        if m:
            kind = GateKind.CC_Z if m.group(2) == "cz" else GateKind.CC_X
            qubits = tuple(_ref(p) for p in m.group(3).split(","))
            gates.append(Gate(kind, qubits, int(m.group(1))))
            continue
        raise QasmError(f"unsupported OpenQASM construct: {ln!r}")
    if in_prep:
        raise QasmError("magic-state preparation is not terminated")
    specs = [(r.name, r.size, r.inits) for r in registers]
    circ = load_circuit(Level.CLIFFORD_T, specs, gates, num_cbits or 0)
    if prologue != _magic_prologue(circ):
        raise QasmError("magic-state preparation does not match the ancilla annotations")
    return circ
