"""Lossless JSON serialization of circuits (schema ``qcla-ir/1``).

Carries the full register table with ancilla init annotations, the gate
list, classical bit count, level tag, and the final wire-name map.  Output
bytes are deterministic for a given circuit.
"""

from __future__ import annotations

import json

from .ir import AncillaInit, Circuit, Gate, GateKind, Level, QubitRef

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
        "labels": {f"{q.reg}[{q.index}]": label for q, label in circ.labels.items()},
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


def from_json_dict(data: dict) -> Circuit:
    """Rebuild a circuit, validating every gate through ``Circuit.append``.

    Raises JsonIrError or CircuitError when a gate or label names a qubit
    that does not exist, a conditional gate reads a bit no earlier
    measurement wrote, or ``num_cbits`` differs from the measured bits.
    """
    if data.get("schema") != SCHEMA:
        raise JsonIrError(f"unsupported schema {data.get('schema')!r}")
    circ = Circuit(
        level=Level(data["level"]),
        ancilla_register=data.get("ancilla_register", "anc"),
    )
    for reg in data["registers"]:
        inits = reg["inits"]
        circ.add_register(
            reg["name"], reg["size"], None if inits is None else [AncillaInit(v) for v in inits]
        )
    for g in data["gates"]:
        qubits = tuple(QubitRef(r, i) for r, i in g["qubits"])
        circ.append(Gate(GateKind(g["kind"]), qubits, g.get("cbit")))
    if circ.num_cbits != data["num_cbits"]:
        raise JsonIrError(
            f"num_cbits {data['num_cbits']} disagrees with the {circ.num_cbits} measured bits"
        )
    for key, label in data["labels"].items():
        reg, idx = key[:-1].split("[")
        q = QubitRef(reg, int(idx))
        if not circ.resolves(q):
            raise JsonIrError(f"label {label!r} is on unknown qubit {key}")
        circ.labels[q] = label
    return circ


def from_json(text: str) -> Circuit:
    return from_json_dict(json.loads(text))
