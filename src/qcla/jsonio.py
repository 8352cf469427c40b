"""Lossless JSON serialization of circuits (schema ``qcla-ir/1``).

Carries the full register table with ancilla init annotations, the gate
list, classical bit count, level tag, and the final wire-name map.  Output
bytes are deterministic for a given circuit.
"""

from __future__ import annotations

import json

from .ir import AncillaInit, Circuit, Gate, GateKind, Level, QubitRef, load_circuit

SCHEMA = "qcla-ir/1"


class JsonIrError(ValueError):
    pass


def to_json_dict(circ: Circuit) -> dict:
    return {
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
        "labels": {str(q): label for q, label in circ.labels.items()},
        "gates": [
            {
                "kind": g.kind.value,
                "qubits": [[q.reg, q.index] for q in g.qubits],
                **({"cbit": g.cbit} if g.cbit is not None else {}),
            }
            for g in circ.gates
        ],
    }


def to_json(circ: Circuit) -> str:
    return json.dumps(to_json_dict(circ), indent=2) + "\n"


def _typed(value, typ: type):
    if type(value) is not typ:
        raise TypeError(f"expected {typ.__name__}, got {value!r}")
    return value


def _register(reg: dict) -> tuple[str, int, list[AncillaInit] | None]:
    inits = reg["inits"]
    if inits is not None:
        inits = [AncillaInit(v) for v in _typed(inits, list)]
    return _typed(reg["name"], str), _typed(reg["size"], int), inits


def _gate(g: dict) -> Gate:
    qubits = tuple(QubitRef(_typed(r, str), _typed(i, int)) for r, i in g["qubits"])
    cbit = g.get("cbit")
    return Gate(GateKind(g["kind"]), qubits, None if cbit is None else _typed(cbit, int))


def from_json_dict(data: dict) -> Circuit:
    """Rebuild a circuit through :func:`qcla.ir.load_circuit`.

    A document that is not a ``qcla-ir/1`` object of the expected shape and
    types raises JsonIrError.  A well-formed document that breaks a circuit
    rule (a gate or label on a qubit that does not exist, a conditional gate
    reading a bit no earlier measurement wrote, a ``num_cbits`` that differs
    from the measured bits) raises CircuitError.
    """
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != SCHEMA:
        raise JsonIrError(f"unsupported schema {schema!r}")
    try:
        level = Level(data["level"])
        registers = [_register(reg) for reg in data["registers"]]
        gates = [_gate(g) for g in data["gates"]]
        labels = {QubitRef.parse(k): _typed(v, str) for k, v in data["labels"].items()}
        num_cbits = _typed(data["num_cbits"], int)
        ancilla_register = _typed(data.get("ancilla_register", "anc"), str)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise JsonIrError(f"malformed {SCHEMA} document ({type(exc).__name__}: {exc})") from None
    return load_circuit(level, registers, gates, num_cbits, labels, ancilla_register)


def from_json(text: str) -> Circuit:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonIrError(f"not a JSON document: {exc}") from None
    return from_json_dict(data)
