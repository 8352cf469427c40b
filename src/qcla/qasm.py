"""OpenQASM 3 export and subset parser for round-trip checks.

The emitter covers exactly the Clifford+T constructs this package produces;
the parser accepts that subset back.  Ancilla-register init annotations ride
in structured comments so the round trip preserves the full register table;
wire labels and the ancilla register name are not carried (the JSON IR of
:mod:`qcla.jsonio` carries both).  Every Clifford+T ancilla starts in |0>
and the gate stream prepares each magic state it consumes, so an exported
file runs on stock simulators as written.

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
    Register,
    _gc_paused,
    load_circuit,
)


class QasmError(ValueError):
    pass


# the OpenQASM statement of every gate kind but measure_x (written as h then
# measure): the gate name, and whether it runs under ``if (c[k] == 1) { ... }``
_SPELLING = {
    GateKind.NOT: ("x", False),
    GateKind.CNOT: ("cx", False),
    GateKind.H: ("h", False),
    GateKind.T: ("t", False),
    GateKind.TDG: ("tdg", False),
    GateKind.S: ("s", False),
    GateKind.SDG: ("sdg", False),
    GateKind.Z: ("z", False),
    GateKind.CC_Z: ("cz", True),
    GateKind.CC_X: ("x", True),
}
_KIND_OF = {spelling: kind for kind, spelling in _SPELLING.items()}


def to_qasm3(circ: Circuit) -> str:
    """Serialize a Clifford+T circuit to OpenQASM 3 text.  Each distinct gate
    is spelled once and its text reused wherever the gate repeats."""
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
    names = {q: str(q) for q in circ.qubits()}  # each qubit is spelled once
    spelled: dict[Gate, str] = {}  # each distinct gate is spelled once
    for gate in circ.gates:
        text = spelled.get(gate)
        if text is None:
            kind, qubits, cbit = gate
            spelling = _SPELLING.get(kind)
            if spelling is not None:
                name, conditional = spelling
                text = f"{name} {', '.join(map(names.__getitem__, qubits))};"
                if conditional:
                    text = f"if (c[{cbit}] == 1) {{ {text} }}"
            elif kind is GateKind.MEASURE_X:
                q = names[qubits[0]]
                text = f"h {q};\nc[{cbit}] = measure {q};"
            else:
                raise QasmError(f"gate kind {kind} has no OpenQASM form")
            spelled[gate] = text
        lines.append(text)
    return "\n".join(lines) + "\n"


# integers are ASCII digits only and blanks are ASCII spaces or tabs; \d and
# \s would also match the digits and spaces of other scripts
_BLANK = " \t"
_RE_QUBIT = re.compile(r"^qubit\[([0-9]+)\][ \t]+(\w+);$")
_RE_BIT = re.compile(r"^bit\[([0-9]+)\][ \t]+c;$")
# lines are stripped, so an empty ancilla register's annotation has no space after the colon
_RE_ANC = re.compile(r"^// ancilla (\w+): ?(.*)$")
_RE_MEASURE = re.compile(r"^c\[([0-9]+)\][ \t]*=[ \t]*measure[ \t]+([^,;]+);$")
# a gate statement, under ``if (c[k] == 1) { ... }`` when group 1 matched
_RE_GATE = re.compile(r"^(?:if \(c\[([0-9]+)\] == 1\) \{ )?([a-z]+)[ \t]+([^;]+);(?(1) \})$")


def _ref(text: str) -> QubitRef:
    try:
        return QubitRef.parse(text.strip(_BLANK))
    except ValueError:
        raise QasmError(f"bad qubit reference {text!r}") from None


class _Refs(dict):
    """Operand text -> its QubitRef, each text parsed at its first lookup.
    The QubitRefs are interned in the same dict, so texts that spell one
    qubit (``A[0]`` and `` A[0]`` after a comma) share one QubitRef."""

    def __missing__(self, text: str) -> QubitRef:
        ref = _ref(text)
        ref = self[text] = self.setdefault(ref, ref)
        return ref


@_gc_paused
def parse_qasm3(text: str) -> Circuit:
    """Parse text produced by :func:`to_qasm3` back into a circuit.

    Only the emitted subset is understood; anything else is a parse error
    (QasmError).  An ``h`` immediately followed by a measurement of the same
    qubit folds back into the single X-basis-measurement gate it came from.
    Lines break at ``\\n`` only (one ``\\r`` before it is dropped, so CRLF text
    loads), and tokens are separated by ASCII spaces or tabs only.  Ancilla
    inits come from the ``// ancilla`` annotations alone, at most one per
    register; every other comment is skipped.  ``bit[k] c;`` is declared at
    most once.  The parsed registers, gates and ``bit[k] c;`` count go to
    :func:`qcla.ir.load_circuit`, which applies the circuit rules
    (CircuitError); an annotation that names an init other than ``zero`` is
    a QasmError.  Each distinct gate line is parsed once: a line that repeats
    one already read appends the same (immutable) gate again.  Pauses the
    cyclic garbage collector while it runs and restores it (see
    :func:`qcla.ir._gc_paused`).
    """
    lines = [ln.removesuffix("\r").strip(_BLANK) for ln in text.split("\n")]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "OPENQASM 3.0;":
        raise QasmError("missing OPENQASM 3.0 header")
    registers: list[Register] = []  # inits stay None for data registers
    gates: list[Gate] = []
    num_cbits: int | None = None
    refs = _Refs()
    parsed: dict[str, Gate] = {}  # gate line -> its gate; only lines that parsed to a gate
    new = tuple.__new__
    i = 1
    if i < len(lines) and lines[i] == 'include "stdgates.inc";':
        i += 1
    for ln in lines[i:]:
        gate = parsed.get(ln)
        if gate is not None:
            gates.append(gate)
            continue
        # most lines are gates, and no declaration, comment or measurement matches a gate kind
        m = _RE_GATE.match(ln)
        kind = m and _KIND_OF.get((m[2], m[1] is not None))
        if kind is not None:
            qubits = tuple(map(refs.__getitem__, m[3].split(",")))
            gate = parsed[ln] = new(Gate, (kind, qubits, None if m[1] is None else int(m[1])))
            gates.append(gate)
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
            q = refs[m.group(2)]
            if not gates or gates[-1] != Gate(GateKind.H, (q,)):
                raise QasmError("bare measurement without preceding h (not in emitted subset)")
            gates[-1] = new(Gate, (GateKind.MEASURE_X, (q,), int(m.group(1))))
            continue
        raise QasmError(f"unsupported OpenQASM construct: {ln!r}")
    specs = [(r.name, r.size, r.inits) for r in registers]
    return load_circuit(Level.CLIFFORD_T, specs, gates, num_cbits or 0)
