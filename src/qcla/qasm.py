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

from .ir import (
    AncillaInit,
    Circuit,
    Gate,
    GateKind,
    Level,
    QubitRef,
)


class QasmError(ValueError):
    pass


_SIMPLE = {
    GateKind.NOT: "x",
    GateKind.H: "h",
    GateKind.T: "t",
    GateKind.TDG: "tdg",
    GateKind.S: "s",
    GateKind.SDG: "sdg",
    GateKind.Z: "z",
}


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
    magic = [
        QubitRef(reg.name, i)
        for reg in circ.registers.values()
        if reg.inits is not None
        for i, init in enumerate(reg.inits)
        if init is AncillaInit.MAGIC_A
    ]
    if magic:
        lines.append("// begin magic-state preparation")
        for q in magic:
            lines.append(f"h {q};")
            lines.append(f"t {q};")
        lines.append("// end magic-state preparation")
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


_RE_QUBIT = re.compile(r"^qubit\[(\d+)\]\s+(\w+);$")
_RE_BIT = re.compile(r"^bit\[(\d+)\]\s+c;$")
_RE_ANC = re.compile(r"^// ancilla (\w+): (.*)$")
_RE_REF = re.compile(r"^(\w+)\[(\d+)\]$")
_RE_ONE = re.compile(r"^(x|h|t|tdg|s|sdg|z)\s+([^,;]+);$")
_RE_TWO = re.compile(r"^(cx|cz)\s+([^,;]+),\s*([^,;]+);$")
_RE_MEASURE = re.compile(r"^c\[(\d+)\]\s*=\s*measure\s+([^,;]+);$")
_RE_IF = re.compile(r"^if \(c\[(\d+)\] == 1\) \{ (cz|x) ([^;]+); \}$")

_NAME_TO_KIND = {
    "x": GateKind.NOT,
    "h": GateKind.H,
    "t": GateKind.T,
    "tdg": GateKind.TDG,
    "s": GateKind.S,
    "sdg": GateKind.SDG,
    "z": GateKind.Z,
}


def _ref(text: str) -> QubitRef:
    m = _RE_REF.match(text.strip())
    if not m:
        raise QasmError(f"bad qubit reference {text!r}")
    return QubitRef(m.group(1), int(m.group(2)))


def parse_qasm3(text: str) -> Circuit:
    """Parse text produced by :func:`to_qasm3` back into a circuit.

    Only the emitted subset is understood; anything else is a parse error.
    An ``h`` immediately followed by a measurement of the same qubit folds
    back into the single X-basis-measurement gate it came from.  Every gate
    goes through :meth:`Circuit.append`, which counts the classical bits from
    the measurements; the ``bit[k] c;`` declaration must agree with that count.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "OPENQASM 3.0;":
        raise QasmError("missing OPENQASM 3.0 header")
    circ = Circuit(level=Level.CLIFFORD_T)
    in_prep = False
    prep_seen: list[QubitRef] = []
    pending_h: QubitRef | None = None
    declared_cbits = 0

    def flush_pending() -> None:
        nonlocal pending_h
        if pending_h is not None:
            circ.append(Gate(GateKind.H, (pending_h,)))
            pending_h = None

    i = 1
    if i < len(lines) and lines[i] == 'include "stdgates.inc";':
        i += 1
    for ln in lines[i:]:
        if ln == "// begin magic-state preparation":
            in_prep = True
            continue
        if ln == "// end magic-state preparation":
            # rewrite the prologue h/t pairs into MAGIC_A annotations
            for q in prep_seen:
                if not circ.resolves(q):
                    raise QasmError(f"magic preparation on unknown qubit {q}")
                reg = circ.registers[q.reg]
                if reg.inits is None:
                    raise QasmError(f"magic preparation on data register {q.reg}")
                reg.inits[q.index] = AncillaInit.MAGIC_A
            in_prep = False
            continue
        m = _RE_ANC.match(ln)
        if m:
            name, inits = m.group(1), m.group(2)
            reg = circ.registers.get(name)
            if reg is None:
                raise QasmError(f"ancilla annotation for unknown register {name!r}")
            values = inits.split(",") if inits else []
            if len(values) != reg.size:
                raise QasmError(f"ancilla annotation length mismatch for {name!r}")
            try:
                reg.inits = [AncillaInit(v) for v in values]
            except ValueError:
                raise QasmError(f"unknown ancilla init in {ln!r}") from None
            continue
        if ln.startswith("//"):
            continue
        m = _RE_QUBIT.match(ln)
        if m:
            circ.add_register(m.group(2), int(m.group(1)), None)
            continue
        m = _RE_BIT.match(ln)
        if m:
            declared_cbits = int(m.group(1))
            continue
        if in_prep:
            m = _RE_ONE.match(ln)
            if not m or m.group(1) not in ("h", "t"):
                raise QasmError(f"unexpected line in preparation prologue: {ln!r}")
            if m.group(1) == "t":
                prep_seen.append(_ref(m.group(2)))
            continue
        m = _RE_MEASURE.match(ln)
        if m:
            cbit, q = int(m.group(1)), _ref(m.group(2))
            if pending_h == q:
                pending_h = None
                circ.append(Gate(GateKind.MEASURE_X, (q,), cbit))
                continue
            raise QasmError("bare measurement without preceding h (not in emitted subset)")
        m = _RE_ONE.match(ln)
        if m:
            flush_pending()
            kind, q = _NAME_TO_KIND[m.group(1)], _ref(m.group(2))
            if kind is GateKind.H:
                pending_h = q  # may fold into a following measurement
            else:
                circ.append(Gate(kind, (q,)))
            continue
        m = _RE_TWO.match(ln)
        if m:
            flush_pending()
            kind = GateKind.CNOT if m.group(1) == "cx" else GateKind.CZ
            circ.append(Gate(kind, (_ref(m.group(2)), _ref(m.group(3)))))
            continue
        m = _RE_IF.match(ln)
        if m:
            flush_pending()
            cbit, op, args = int(m.group(1)), m.group(2), m.group(3)
            if op == "cz":
                parts = args.split(",")
                if len(parts) != 2:
                    raise QasmError(f"conditional cz needs two operands: {ln!r}")
                circ.append(Gate(GateKind.CC_Z, tuple(_ref(p) for p in parts), cbit))
            else:
                circ.append(Gate(GateKind.CC_X, (_ref(args),), cbit))
            continue
        raise QasmError(f"unsupported OpenQASM construct: {ln!r}")
    flush_pending()
    if declared_cbits != circ.num_cbits:
        raise QasmError(
            f"bit[{declared_cbits}] c; declared, but the measurements write {circ.num_cbits} bits"
        )
    # registers without an ancilla annotation are data registers (inits None)
    return circ
