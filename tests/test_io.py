"""OpenQASM 3 and JSON IR: emission, parsing, round-trips, golden files."""

import json
import re
from pathlib import Path

import pytest

from qcla.builders import Design, build
from qcla.ir import Circuit, CircuitError, GateKind, Level, QubitRef, cnot, h, measure_x, toffoli
from qcla.jsonio import JsonIrError, from_json, to_json
from qcla.lowering import lower, lower_uncompute
from qcla.qasm import QasmError, parse_qasm3, to_qasm3

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def _simple_circuit():
    circ = Circuit(level=Level.CLIFFORD_T)
    circ.add_register("q", 2, None)
    circ.append(cnot(QubitRef("q", 0), QubitRef("q", 1)))
    return circ


def test_single_cnot_emits_one_cx_line():
    text = to_qasm3(_simple_circuit())
    assert sum(1 for ln in text.splitlines() if ln.startswith("cx ")) == 1


def test_uncompute_emits_measure_and_conditional():
    circ = Circuit(level=Level.CLIFFORD_T)
    circ.add_register("q", 3, None)
    q = [QubitRef("q", i) for i in range(3)]
    for g in lower_uncompute(q[0], q[1], q[2]):
        circ.append(g)
    text = to_qasm3(circ)
    assert sum(1 for ln in text.splitlines() if "measure" in ln) == 1
    assert sum(1 for ln in text.splitlines() if ln.startswith("if (")) == 1


def test_qasm_requires_clifford_t_level():
    with pytest.raises(QasmError, match="lower first"):
        to_qasm3(build(Design.OUT_FT_QCLA1, 2))


def test_qasm_rejects_a_gate_kind_it_cannot_spell():
    circ = Circuit(level=Level.CLIFFORD_T)
    circ.add_register("q", 3, None)
    circ.gates.append(toffoli(*(QubitRef("q", i) for i in range(3))))  # past append's level check
    with pytest.raises(QasmError, match="^gate kind GateKind.TOFFOLI has no OpenQASM form$"):
        to_qasm3(circ)


def test_qasm_round_trip_empty():
    circ = Circuit(level=Level.CLIFFORD_T)
    back = parse_qasm3(to_qasm3(circ))
    assert back.gates == [] and back.num_qubits == 0


def test_qasm_rejects_unknown_gate():
    with pytest.raises(QasmError, match="unsupported"):
        parse_qasm3('OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[1] q;\nrx(0.5) q[0];\n')


def test_qasm_rejects_a_second_include():
    with pytest.raises(QasmError, match="unsupported OpenQASM construct"):
        parse_qasm3('OPENQASM 3.0;\ninclude "stdgates.inc";\ninclude "stdgates.inc";\n')


def test_qasm_rejects_missing_header():
    with pytest.raises(QasmError, match="header"):
        parse_qasm3("qubit[1] q;\n")


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", [1, 2, 4])
def test_qasm_round_trip_lowered_designs(design, n):
    circ = lower(build(design, n))
    text = to_qasm3(circ)
    assert text == to_qasm3(lower(build(design, n)))  # byte-stable
    back = parse_qasm3(text)
    assert back.gates == circ.gates
    assert [(r.name, r.size, r.inits) for r in back.registers.values()] == [
        (r.name, r.size, r.inits) for r in circ.registers.values()
    ]
    assert back.num_cbits == circ.num_cbits


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", [1, 2, 4])
def test_json_round_trip_both_levels(design, n):
    for circ in (build(design, n), lower(build(design, n))):
        text = to_json(circ)
        back = from_json(text)
        assert back.structural_key() == circ.structural_key()
        assert to_json(back) == text


def test_json_rejects_wrong_schema():
    with pytest.raises(JsonIrError):
        from_json('{"schema": "other/9", "level": "toffoli"}')


def test_golden_qasm_files():
    """Exports match the recorded golden bytes for every design at n = 2."""
    for design in Design:
        path = GOLDEN / f"{design.key}_n2.qasm"
        assert path.exists(), f"missing golden file {path}"
        assert to_qasm3(lower(build(design, 2))) == path.read_text()


def test_qasm_crlf_golden_file_round_trips():
    text = (GOLDEN / "in1_n2.qasm").read_text()
    assert to_qasm3(parse_qasm3(text.replace("\n", "\r\n"))) == text


def test_golden_json_file():
    path = GOLDEN / "out1_n2.json"
    assert to_json(lower(build(Design.OUT_FT_QCLA1, 2))) == path.read_text()



@pytest.mark.parametrize(
    "lowered, edit",
    [
        (False, lambda d: d["gates"].append(
            {"kind": "toffoli", "qubits": [["A", 0], ["A", 0], ["Q", 5]]})),
        (False, lambda d: d["gates"].append({"kind": "cnot", "qubits": [["A", 0], ["A", 0]]})),
        (False, lambda d: d["gates"].append({"kind": "h", "qubits": [["A", 0]]})),
        (True, lambda d: d["gates"].append(
            {"kind": "cc_z", "qubits": [["A", 0], ["A", 1]], "cbit": 99})),
        (True, lambda d: d["labels"].update({"Q[5]": "s9"})),
        (True, lambda d: d.update(num_cbits=d["num_cbits"] - 1)),
        (True, lambda d: d.update(num_cbits=d["num_cbits"] + 1)),
        (False, lambda d: d["gates"].append({"kind": "cnot", "qubits": [["A", 0]]})),
        (True, lambda d: d["gates"].append({"kind": "h", "qubits": []})),
        (True, lambda d: d["gates"].append({"kind": "h", "qubits": [["A", 0], ["A", 1]]})),
        (True, lambda d: d["gates"].append(
            {"kind": "measure_x", "qubits": [["A", 0]], "cbit": -1})),
        (True, lambda d: d["gates"].append(
            {"kind": "measure_x", "qubits": [["A", 0]], "cbit": 0})),
        (True, lambda d: d["gates"].append({"kind": "h", "qubits": [["A", 0]], "cbit": 3})),
    ],
    ids=["toffoli-duplicate-unknown-register", "duplicate-operand", "wrong-level",
         "unknown-cbit", "label-on-unknown-qubit", "num-cbits-too-small",
         "num-cbits-too-large", "cnot-one-operand", "h-no-operand", "h-two-operands",
         "measure-negative-cbit", "measure-rewrites-bit", "h-with-cbit"],
)
def test_json_loader_validates(lowered, edit):
    circ = build(Design.OUT_FT_QCLA1, 2)
    data = json.loads(to_json(lower(circ) if lowered else circ))
    edit(data)
    with pytest.raises((JsonIrError, CircuitError)):
        from_json(json.dumps(data))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: {k: v for k, v in d.items() if k != "level"},
        lambda d: {**d, "level": "x"},
        lambda d: {**d, "gates": d["gates"] + [{"kind": "rx", "qubits": [["A", 0]]}]},
        lambda d: {**d, "labels": {"A0": "s9"}},
        lambda d: {**d, "labels": {"A[1x": "s9"}},
        lambda d: {**d, "gates": d["gates"] + [{"kind": "not", "qubits": [["A", "0"]]}]},
        lambda d: {**d, "registers": [{**d["registers"][0], "size": 2.0}] + d["registers"][1:]},
        lambda d: [d],
    ],
    ids=["missing-level", "unknown-level", "unknown-kind", "label-key-without-brackets",
         "label-key-trailing-text", "string-qubit-index", "float-register-size",
         "top-level-list"],
)
def test_json_loader_rejects_malformed_documents(edit):
    data = edit(json.loads(to_json(build(Design.OUT_FT_QCLA1, 2))))
    with pytest.raises(JsonIrError):
        from_json(json.dumps(data))


def test_json_loader_rejects_invalid_json_text():
    with pytest.raises(JsonIrError):
        from_json('{"schema": "qcla-ir/1",')


_QASM_HEAD = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'


@pytest.mark.parametrize(
    "body",
    [
        "qubit[2] q;\nbit[2] c;\nif (c[1] == 1) { cz q[0], q[1]; }\n",
        "qubit[1] q;\nbit[5] c;\nh q[0];\nc[0] = measure q[0];\n",
        "qubit[1] q;\n// begin magic-state preparation\nh z[0];\nt z[0];\n"
        "// end magic-state preparation\n",
        "qubit[2] q;\nbit[1] c;\nh q[0];\nc[0] = measure q[0];\nif (c[0] == 1) { cz q[1]; }\n",
        "qubit[1] a;\n// ancilla a: bogus\n",
        "qubit[2] q;\nbit[2] c;\nh q[0];\nc[1] = measure q[0];\nif (c[0] == 1) { x q[1]; }\n",
        "qubit[2] q;\ncz q[0], q[1];\n",
    ],
    ids=["conditional-without-measurement", "declared-bits-exceed-measured",
         "magic-prologue-unknown-register", "conditional-cz-one-operand", "unknown-ancilla-init",
         "measure-skips-bit", "unconditional-cz"],
)
def test_qasm_parser_validates(body):
    with pytest.raises((QasmError, CircuitError)):
        parse_qasm3(_QASM_HEAD + body)


@pytest.mark.parametrize("name", ["a b", "9q", "c", "", "q;"])
def test_json_loader_rejects_bad_register_names(name):
    data = json.loads(to_json(build(Design.OUT_FT_QCLA1, 2)))
    data["registers"][0]["name"] = name
    with pytest.raises(CircuitError, match="register name"):
        from_json(json.dumps(data))


@pytest.mark.parametrize("body", ["qubit[1] 9q;\nx 9q[0];\n", "qubit[2] c;\nx c[0];\n"],
                         ids=["leading-digit", "reserved-c"])
def test_qasm_parser_rejects_bad_register_names(body):
    with pytest.raises(CircuitError, match="register name"):
        parse_qasm3(_QASM_HEAD + body)


_PREP = "// begin magic-state preparation\n{}// end magic-state preparation\n"
_NOT_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r"


@pytest.mark.parametrize(
    "body, error",
    [
        ("qubit[٣] q;\nx q[0];\n", QasmError),
        ("qubit[1] q;\nbit[1] c;\nh q[0];\nc[٠] = measure q[0];\n", QasmError),
        ("qubit[2] q;\nbit[1] c;\nh q[0];\nc[0] = measure q[0];\nif (c[٠] == 1) { x q[1]; }\n",
         QasmError),
        ("qubit[2] q;\nx q[01];\n", QasmError),
        ("qubit[2] q;\nx q[١];\n", QasmError),
        # zero is the one ancilla init, so the parser refuses magic_a as an
        # unknown init (QasmError) before the circuit rules see a register
        ("qubit[1] a;\n// ancilla a: magic_a\n" + _PREP.format("t a[0];\n"), QasmError),
        ("qubit[1] a;\n// ancilla a: magic_a\n", QasmError),
        ("qubit[2] a;\n// ancilla a: magic_a,magic_a\n"
         + _PREP.format("h a[1];\nt a[1];\nh a[0];\nt a[0];\n"), QasmError),
        ("qubit[1] a;\n// ancilla a: magic_a\n" + _PREP.format("h a[0];\nt a[0];\n") * 2,
         QasmError),
        ("qubit[1] a;\n// ancilla a: zero\n// ancilla a: zero\n", QasmError),
        ("qubit[1] q;\nbit[1] c;\nbit[0] c;\n", QasmError),
        ("qubit[1] q;\nx\u3000q[0];\n", QasmError),
        ("qubit[2] q;\ncx q[0],\u3000q[1];\n", QasmError),
        # str.splitlines() breaks lines at each of these; the parser breaks at \n only
        *((f"qubit[2] q;\nx q[0];{sep}x q[1];\n", QasmError) for sep in _NOT_LINE_BREAKS),
    ],
    ids=["non-ascii-qubit-count", "non-ascii-measure-bit", "non-ascii-condition-bit",
         "leading-zero-index", "non-ascii-index",
         "prologue-only-t", "magic-annotation-without-prologue", "prologue-out-of-order",
         "prologue-twice", "ancilla-annotation-twice", "bit-declaration-twice",
         "non-ascii-space-between-tokens", "non-ascii-space-before-operand",
         *(f"line-break-{ord(sep):02x}" for sep in _NOT_LINE_BREAKS)],
)
def test_qasm_parser_rejects_outside_the_emitted_subset(body, error):
    with pytest.raises(error):
        parse_qasm3(_QASM_HEAD + body)


def test_qasm_annotation_length_is_checked_by_the_register():
    with pytest.raises(CircuitError, match="1 inits for 2 qubits"):
        parse_qasm3(_QASM_HEAD + "qubit[2] a;\n// ancilla a: zero\n")


@pytest.mark.parametrize("key", ["a b[0]", "A[01]", "A[٠]", "A[-1]", "[0]"])
def test_json_label_key_is_a_qubit_reference(key):
    data = json.loads(to_json(build(Design.OUT_FT_QCLA1, 2)))
    data["labels"][key] = "s9"
    with pytest.raises(JsonIrError):
        from_json(json.dumps(data))


def _canonical(text: str) -> str:
    """The bytes json.dumps(indent=2) writes for the document in ``text``."""
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("design", list(Design))
def test_json_bytes_are_json_dumps_bytes(design):
    """to_json writes the gate list itself; its bytes are json.dumps(indent=2)'s."""
    for n in [*range(1, 33), 64]:
        circ = build(design, n)
        for c in (circ, lower(circ)):
            text = to_json(c)
            assert text == _canonical(text), (design, n, c.level)
            assert to_json(from_json(text)) == text, (design, n, c.level)


def _toffoli_doc(gates: list) -> str:
    return json.dumps({
        "schema": "qcla-ir/1", "level": "toffoli",
        "registers": [{"name": "A", "size": 2, "inits": None}],
        "num_cbits": 0, "ancilla_register": "anc", "labels": {},
        "gates": [{"kind": "not", "qubits": qubits} for qubits in gates],
    })


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("index, spelled", [(True, "True"), (1.0, "1.0"), (0.0, "0.0")])
def test_json_loader_types_every_occurrence_of_a_qubit(first, index, spelled):
    """A qubit read once is not looked up by a later index that only equals it:
    ("A", True) and ("A", 1.0) are keys equal to ("A", 1)."""
    text = _toffoli_doc([[["A", first]], [["A", index]]])
    with pytest.raises(JsonIrError, match=re.escape(f"(TypeError: expected int, got {spelled})")):
        from_json(text)


@pytest.mark.parametrize("kind, spelled", [("rx", "'rx'"), (["h"], "['h']"), (3, "3"),
                                           (None, "None"), ({"a": 1}, "{'a': 1}")])
def test_json_loader_names_an_unknown_kind(kind, spelled):
    data = json.loads(_toffoli_doc([[["A", 0]]]))
    data["gates"][0]["kind"] = kind
    message = f"(ValueError: {spelled} is not a valid GateKind)"
    with pytest.raises(JsonIrError, match=re.escape(message)):
        from_json(json.dumps(data))


@pytest.mark.parametrize(
    "body, operand",
    [
        ("qubit[2] q;\nx q[01];\ncx q[0], q[01];\n", "q[01]"),
        ("qubit[2] q;\ncx q[1], q[01];\nx q[01];\n", " q[01]"),
        ("qubit[2] q;\nbit[1] c;\nh q[0];\nc[0] = measure q[01];\nx q[01];\n", "q[01]"),
    ],
    ids=["gate-then-gate", "second-operand-then-gate", "measure-then-gate"],
)
def test_qasm_parser_names_the_first_bad_operand(body, operand):
    """An operand text read once raises at its first occurrence, as it spells it."""
    with pytest.raises(QasmError, match=re.escape(f"bad qubit reference {operand!r}")):
        parse_qasm3(_QASM_HEAD + body)


def test_qasm_parser_reads_a_repeated_gate_line_as_one_gate():
    """A repeated line appends its gate again; the measurement fold replaces
    the last ``h`` with a new gate and leaves the shared ``h`` as it was."""
    body = "qubit[1] q;\nbit[1] c;\n" + "h q[0];\n" * 3 + "c[0] = measure q[0];\nh q[0];\n"
    gates = parse_qasm3(_QASM_HEAD + body).gates
    q = QubitRef("q", 0)
    assert gates == [h(q), h(q), measure_x(q, 0), h(q)]
    assert gates[0] == gates[3] and gates[0].kind is GateKind.H


def test_qasm_parser_reads_one_gate_spelled_with_different_blanks():
    gates = parse_qasm3(_QASM_HEAD + "qubit[2] q;\ncx q[0],q[1];\ncx  q[0], q[1];\n").gates
    assert gates == [cnot(QubitRef("q", 0), QubitRef("q", 1))] * 2
    assert all(a is b for a, b in zip(*(g.qubits for g in gates)))


@pytest.mark.parametrize(
    "line, message",
    [
        ("rx(0.5) q[0];", "unsupported OpenQASM construct: 'rx(0.5) q[0];'"),
        ("x q[01];", "bad qubit reference 'q[01]'"),
    ],
    ids=["unsupported", "bad-operand"],
)
def test_qasm_parser_raises_at_the_first_occurrence_of_a_repeated_bad_line(line, message):
    """Only lines that parsed to a gate are remembered, so a bad line raises
    where it first appears, before the different bad line that follows it."""
    body = f"qubit[1] q;\nx q[0];\n{line}\nx q[0];\ny q[0];\n{line}\n"
    with pytest.raises(QasmError, match=f"^{re.escape(message)}$"):
        parse_qasm3(_QASM_HEAD + body)


def test_qasm_parser_refuses_a_second_bit_declaration_after_repeated_gates():
    body = "qubit[1] q;\nbit[1] c;\nx q[0];\nx q[0];\nbit[1] c;\n"
    with pytest.raises(QasmError, match="^second classical register declaration$"):
        parse_qasm3(_QASM_HEAD + body)


def _shares_one_ref_per_qubit(circ: Circuit) -> bool:
    seen: dict[QubitRef, QubitRef] = {}
    return all(seen.setdefault(q, q) is q for g in circ.gates for q in g.qubits)


@pytest.mark.parametrize("design", list(Design))
def test_loaders_share_one_ref_per_qubit(design):
    low = lower(build(design, 8))
    assert _shares_one_ref_per_qubit(from_json(to_json(low)))
    assert _shares_one_ref_per_qubit(parse_qasm3(to_qasm3(low)))
    assert _shares_one_ref_per_qubit(from_json(to_json(build(design, 8))))


_MALFORMED = "malformed qcla-ir/1 document "


@pytest.mark.parametrize(
    "gate, error, message",
    [
        ({"kind": "not", "qubits": [["A"]]}, JsonIrError,
         "(ValueError: not enough values to unpack (expected 2, got 1))"),
        ({"kind": "not", "qubits": [["A", 0, 1]]}, JsonIrError,
         "(ValueError: too many values to unpack (expected 2))"),
        ({"kind": "not", "qubits": ["A0"]}, JsonIrError, "(TypeError: expected int, got '0')"),
        ({"kind": "not", "qubits": [5]}, JsonIrError,
         "(TypeError: cannot unpack non-iterable int object)"),
        ({"kind": "not", "qubits": [[True, 0]]}, JsonIrError,
         "(TypeError: expected str, got True)"),
        ({"kind": "not", "qubits": [["A", None]]}, JsonIrError,
         "(TypeError: expected int, got None)"),
        ({"kind": "measure_x", "qubits": [["A", 0]], "cbit": True}, JsonIrError,
         "(TypeError: expected int, got True)"),
        ({"kind": "measure_x", "qubits": [["A", 0]], "cbit": 0.0}, JsonIrError,
         "(TypeError: expected int, got 0.0)"),
        ({"kind": "measure_x", "qubits": [["A", 0]], "cbit": "0"}, JsonIrError,
         "(TypeError: expected int, got '0')"),
        ({"kind": ["h"], "qubits": [["A", 0]], "cbit": True}, JsonIrError,
         "(ValueError: ['h'] is not a valid GateKind)"),
        ({"kind": "zz", "qubits": [["A", 0.5]]}, JsonIrError,
         "(TypeError: expected int, got 0.5)"),
        ({"kind": "not", "qubits": [["A", -1]]}, CircuitError,
         "operand A[-1] does not resolve in the register table"),
        ({"kind": "not", "qubits": [["A", 7]]}, CircuitError,
         "operand A[7] does not resolve in the register table"),
    ],
    ids=["operand-one-field", "operand-three-fields", "operand-string", "operand-int",
         "register-bool", "index-null", "cbit-bool", "cbit-float", "cbit-string",
         "kind-before-cbit", "operands-before-kind", "index-negative", "index-too-large"],
)
def test_json_loader_names_the_first_bad_field_of_a_gate(gate, error, message):
    """One appended gate of each malformed shape raises this class and message."""
    data = json.loads((GOLDEN / "out1_n2.json").read_text())
    data["gates"].append(gate)
    if error is JsonIrError:
        message = _MALFORMED + message
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        from_json(json.dumps(data))
