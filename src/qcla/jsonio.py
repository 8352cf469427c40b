"""Lossless JSON serialization of circuits (schema ``qcla-ir/1``).

Carries the full register table with ancilla init annotations, the gate
list, classical bit count, level tag, and the final wire-name map.  Output
bytes are deterministic for a given circuit.
"""

from __future__ import annotations

import json

from .ir import AncillaInit, Circuit, Gate, GateKind, Level, QubitRef, _gc_paused, load_circuit

SCHEMA = "qcla-ir/1"


class JsonIrError(ValueError):
    pass


# each kind's gate object up to its operand list, at the depth of a gate
_OPEN = {
    kind: f'    {{\n      "kind": {json.dumps(kind.value)},\n      "qubits": ' for kind in GateKind
}


def to_json(circ: Circuit) -> str:
    """The ``qcla-ir/1`` document of a circuit, indented by two spaces.

    The bytes are those ``json.dumps(..., indent=2) + "\\n"`` writes for the
    same document.  json's C encoder only runs without an indent, so the
    fields before ``"gates"`` go through ``json.dumps`` and the gate list is
    written here: each qubit's ``[reg, index]`` block and each kind's opening
    lines are spelled once, each distinct gate's block is one join of them,
    and a gate that repeats reuses its block.
    """
    head = json.dumps(
        {
            "schema": SCHEMA,
            "level": circ.level.value,
            "registers": [
                {
                    "name": reg.name,
                    "size": reg.size,
                    "inits": None if reg.inits is None else [i.value for i in reg.inits],
                }
                for reg in circ.registers.values()
            ],
            "num_cbits": circ.num_cbits,
            "ancilla_register": circ.ancilla_register,
            "labels": {circ.label_key(q): label for q, label in circ.labels.items()},
            "gates": [],
        },
        indent=2,
    )
    if not circ.gates:
        return head + "\n"
    blocks = {}  # qubit -> its [reg, index] block at the depth of a gate's operands
    for reg in circ.registers.values():
        name = json.dumps(reg.name)
        for i in range(reg.size):
            blocks[QubitRef(reg.name, i)] = (
                f"        [\n          {name},\n          {i}\n        ]"
            )
    gates = []
    written: dict[Gate, str] = {}  # each distinct gate's block is written once
    for gate in circ.gates:
        text = written.get(gate)
        if text is None:
            kind, qubits, cbit = gate
            operands = ",\n".join(map(blocks.__getitem__, qubits))
            operands = f"[\n{operands}\n      ]" if operands else "[]"
            close = "\n    }" if cbit is None else f',\n      "cbit": {cbit}\n    }}'
            text = written[gate] = f"{_OPEN[kind]}{operands}{close}"
        gates.append(text)
    return head.removesuffix("[]\n}") + "[\n" + ",\n".join(gates) + "\n  ]\n}\n"


def _typed(value, typ: type):
    if type(value) is not typ:
        raise TypeError(f"expected {typ.__name__}, got {value!r}")
    return value


def _register(reg: dict) -> tuple[str, int, list[AncillaInit] | None]:
    inits = reg["inits"]
    if inits is not None:
        inits = [AncillaInit(v) for v in _typed(inits, list)]
    return _typed(reg["name"], str), _typed(reg["size"], int), inits


_KIND_OF = {kind.value: kind for kind in GateKind}


def _gates(items: list) -> list[Gate]:
    """The gates of a document's ``"gates"`` list, each qubit one shared QubitRef."""
    by_reg: dict[str, dict[int, QubitRef]] = {}  # reg -> index -> its one QubitRef
    gates = []
    append = gates.append
    kind_of = _KIND_OF.get
    new = tuple.__new__
    for g in items:
        qubits = []
        for r, i in g["qubits"]:
            # typed before the lookup, as True and 1.0 are keys equal to 1;
            # _typed only runs to raise
            if type(r) is not str or type(i) is not int:
                _typed(r, str)
                _typed(i, int)
            try:
                qubits.append(by_reg[r][i])
            except KeyError:
                qubits.append(by_reg.setdefault(r, {}).setdefault(i, QubitRef(r, i)))
        value = g["kind"]
        kind = kind_of(value) if type(value) is str else None
        if kind is None:
            kind = GateKind(value)  # not a kind's value: raises the Enum's ValueError
        cbit = g.get("cbit")
        if cbit is not None and type(cbit) is not int:
            _typed(cbit, int)
        append(new(Gate, (kind, tuple(qubits), cbit)))
    return gates


@_gc_paused
def from_json_dict(data: dict) -> Circuit:
    """Rebuild a circuit through :func:`qcla.ir.load_circuit`.

    A document that is not a ``qcla-ir/1`` object of the expected shape and
    types, or that names an init other than ``zero``, raises JsonIrError.  A
    well-formed document that breaks a circuit rule (a gate or label on a
    qubit that does not exist, a conditional gate reading a bit no earlier
    measurement wrote, a ``num_cbits`` that differs from the measured bits)
    raises CircuitError.  Pauses the cyclic garbage collector while it runs
    and restores it (see :func:`qcla.ir._gc_paused`).

    The gates are decoded in one loop.  Within a gate the operands are read
    first, then the kind, then the bit, and every occurrence of an operand is
    type-checked before its lookup.  Each register keeps a table from index
    to QubitRef, so each qubit of a document is one shared QubitRef.
    """
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != SCHEMA:
        raise JsonIrError(f"unsupported schema {schema!r}")
    try:
        level = Level(data["level"])
        registers = [_register(reg) for reg in data["registers"]]
        gates = _gates(data["gates"])
        labels = {QubitRef.parse(k): _typed(v, str) for k, v in data["labels"].items()}
        num_cbits = _typed(data["num_cbits"], int)
        ancilla_register = _typed(data.get("ancilla_register", "anc"), str)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise JsonIrError(f"malformed {SCHEMA} document ({type(exc).__name__}: {exc})") from None
    return load_circuit(level, registers, gates, num_cbits, labels, ancilla_register)


@_gc_paused
def from_json(text: str) -> Circuit:
    """Parse a ``qcla-ir/1`` document and rebuild it by :func:`from_json_dict`;
    text that is not JSON raises JsonIrError.  Pauses the cyclic garbage
    collector while it runs and restores it (see :func:`qcla.ir._gc_paused`)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonIrError(f"not a JSON document: {exc}") from None
    return from_json_dict(data)
