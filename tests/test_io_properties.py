"""Property tests for the JSON and OpenQASM loaders and the batch validator.

Random well-formed Clifford+T circuits round-trip byte-identically, and a
document with one field or line changed either loads into a circuit that
serializes again or raises one of the loaders' documented errors.
``Circuit.extend``, which both loaders end in, accepts a random gate batch
exactly when appending its gates one at a time does, and otherwise raises the
same error.
"""

import json
import re

from hypothesis import example, given, settings, strategies as st

from qcla.ir import AncillaInit, Circuit, CircuitError, Gate, GateKind, Level, QubitRef
from qcla.jsonio import JsonIrError, from_json, to_json
from qcla.qasm import QasmError, parse_qasm3, to_qasm3

LOADER_ERRORS = (JsonIrError, QasmError, CircuitError)
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

ONE_QUBIT = [GateKind.NOT, GateKind.H, GateKind.T, GateKind.TDG, GateKind.S, GateKind.SDG,
             GateKind.Z, GateKind.MEASURE_X, GateKind.CC_X]
TWO_QUBIT = [GateKind.CNOT, GateKind.CC_Z]
# identifiers, some of them non-ASCII, which JSON writes as \u escapes
NAMES = (st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
         | st.sampled_from(["Ω", "é_1", "ßq", "Ωé"])).filter(lambda s: s != "c")


@st.composite
def clifford_t_circuits(draw) -> Circuit:
    circ = Circuit(level=Level.CLIFFORD_T, ancilla_register=draw(NAMES))
    for name in draw(st.lists(NAMES, max_size=3, unique=True)):
        size = draw(st.integers(0, 4))
        # a Clifford+T ancilla starts in |0>
        inits = draw(st.none() | st.just([AncillaInit.ZERO] * size))
        circ.add_register(name, size, inits)
    qubits = list(circ.qubits())
    if not qubits:
        return circ
    kinds = ONE_QUBIT + (TWO_QUBIT if len(qubits) >= 2 else [])
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(kinds))
        arity = 2 if kind in TWO_QUBIT else 1
        operands = draw(st.lists(st.sampled_from(qubits), min_size=arity, max_size=arity,
                                 unique=True))
        cbit = None
        if kind in (GateKind.CC_X, GateKind.CC_Z):
            if not circ.num_cbits:
                continue
            cbit = draw(st.integers(0, circ.num_cbits - 1))
        circ.append(Gate(kind, tuple(operands), cbit))
    for q in draw(st.lists(st.sampled_from(qubits), unique=True)):
        circ.labels[q] = draw(st.text(max_size=4))
    return circ


@SETTINGS
@given(clifford_t_circuits())
def test_json_round_trip_is_byte_identical(circ):
    text = to_json(circ)
    back = from_json(text)
    assert to_json(back) == text
    assert back.structural_key() == circ.structural_key()


@SETTINGS
@given(clifford_t_circuits())
def test_qasm_round_trip_is_byte_identical(circ):
    text = to_qasm3(circ)
    back = parse_qasm3(text)
    assert to_qasm3(back) == text
    assert back.gates == circ.gates and back.num_cbits == circ.num_cbits


def _omega_circuit() -> Circuit:
    """Gates on a non-ASCII register, an empty register and a measured bit."""
    circ = Circuit(level=Level.CLIFFORD_T, ancilla_register="é_1")
    circ.add_register("Ω", 2, None)
    circ.add_register("é_1", 0, [])
    q0, q1 = QubitRef("Ω", 0), QubitRef("Ω", 1)
    circ.extend([Gate(GateKind.CNOT, (q0, q1)), Gate(GateKind.MEASURE_X, (q1,)),
                 Gate(GateKind.CC_Z, (q1, q0), 0)])
    circ.labels[q0] = "ω"
    return circ


def _gateless_circuit() -> Circuit:
    circ = Circuit(level=Level.CLIFFORD_T)
    circ.add_register("q", 2, None)
    circ.add_register("anc", 0, [])
    return circ


def test_json_escapes_non_ascii_register_names():
    text = to_json(_omega_circuit())
    assert '"\\u03a9"' in text and "Ω" not in text
    assert from_json(text).structural_key() == _omega_circuit().structural_key()


@SETTINGS
@given(clifford_t_circuits())
@example(_omega_circuit())
@example(_gateless_circuit())
@example(Circuit(level=Level.CLIFFORD_T))
def test_json_bytes_are_json_dumps_bytes(circ):
    """to_json writes the gate list itself; its bytes are json.dumps(indent=2)'s."""
    text = to_json(circ)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert to_json(from_json(text)) == text


def _paths(node, prefix=()):
    """Every (path, value) in a JSON document, containers included."""
    yield prefix, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


REPLACEMENTS = st.sampled_from(
    [None, -1, 0, 1, 2, 99, True, 1.5, "", "x", "A[0]", "measure_x", "magic_a", [], {},
     ["A", 0], [["A", 0]], "toffoli", "cliffordt"]
)


def _loads_cleanly(circ: Circuit) -> None:
    """A circuit a loader accepted serializes and loads again."""
    assert from_json(to_json(circ)).structural_key() == circ.structural_key()
    if circ.level is Level.CLIFFORD_T:
        assert parse_qasm3(to_qasm3(circ)).gates == circ.gates


@SETTINGS
@given(clifford_t_circuits(), st.data())
def test_json_single_field_mutation_raises_only_loader_errors(circ, data):
    doc = json.loads(to_json(circ))
    path, _ = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        parent[path[-1]] = data.draw(REPLACEMENTS)
    elif isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent.pop(path[-1])
    try:
        back = from_json(json.dumps(doc))
    except LOADER_ERRORS:
        return
    _loads_cleanly(back)


TOKENS = st.sampled_from(["h", "x", "cz", "cx", "t", "measure", "q", "c", "anc", "0", "1",
                          "7", "//", ";", ",", "{", "}", "[", "]", "zero", "magic_a", ""])


@SETTINGS
@given(clifford_t_circuits(), st.data())
def test_qasm_single_line_mutation_raises_only_loader_errors(circ, data):
    lines = to_qasm3(circ).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["delete", "duplicate", "token"]))
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = re.split(r"(\W)", lines[i])
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(TOKENS)
        lines[i] = "".join(tokens)
    try:
        back = parse_qasm3("\n".join(lines) + "\n")
    except LOADER_ERRORS:
        return
    _loads_cleanly(back)


# operands a batch may draw: every qubit of the circuit below, one index past
# a register's end and one qubit of no register
BATCH_OPERANDS = ([QubitRef("d", i) for i in range(3)] + [QubitRef("m", i) for i in range(3)]
                  + [QubitRef("d", 3), QubitRef("x", 0)])


@st.composite
def gate_batches(draw):
    """A circuit factory and a random gate batch for it.

    Gates are of a kind legal at the circuit's level, with distinct operands
    that exist; only a ``cc_z`` / ``cc_x`` carries a classical bit, which an
    earlier measurement may or may not have written.  At most one gate is
    drawn with any kind, operands and classical bit instead."""
    level = draw(st.sampled_from(Level))
    measured = draw(st.integers(0, 2)) if level is Level.CLIFFORD_T else 0

    def make() -> Circuit:
        circ = Circuit(level=level)
        circ.add_register("d", 3)
        circ.add_register("m", 3, [AncillaInit.ZERO] * 3)
        circ.extend(Gate(GateKind.MEASURE_X, (QubitRef("d", i),)) for i in range(measured))
        return circ

    legal = [kind for kind in GateKind if kind.level in (None, level)]
    size = draw(st.integers(0, 8))
    wild = draw(st.none() | st.integers(0, 8))
    batch = []
    for i in range(size):
        if i == wild:
            kind = draw(st.sampled_from(GateKind))
            operands = draw(st.lists(st.sampled_from(BATCH_OPERANDS), max_size=4))
            cbit = draw(st.none() | st.integers(-1, 4))
        else:
            kind = draw(st.sampled_from(legal))
            operands = draw(st.lists(st.sampled_from(BATCH_OPERANDS[:6]), min_size=kind.arity,
                                     max_size=kind.arity, unique=True))
            cbit = draw(st.integers(0, 3)) if kind in (GateKind.CC_Z, GateKind.CC_X) else None
        batch.append(Gate(kind, tuple(operands), cbit))
    return make, batch


def _toffoli_circuit() -> Circuit:
    circ = Circuit(level=Level.TOFFOLI)
    circ.add_register("d", 3)
    circ.add_register("m", 3, [AncillaInit.ZERO] * 3)
    return circ


@SETTINGS
@given(gate_batches())
# the first gate repeats an operand and the second names no register: each
# gate on its own breaks a different rule, and the first gate's error wins
@example((_toffoli_circuit, [Gate(GateKind.CNOT, (QubitRef("d", 0), QubitRef("d", 0))),
                             Gate(GateKind.CNOT, (QubitRef("d", 1), QubitRef("x", 9)))]))
def test_extend_accepts_a_batch_exactly_when_append_accepts_each_gate(case):
    make, batch = case
    one_by_one, whole = make(), make()
    try:
        for gate in batch:
            one_by_one.append(gate)
    except CircuitError as error:
        appended, message = False, str(error)
    else:
        appended = True
    before = whole.structural_key()
    try:
        whole.extend(batch)
    except CircuitError as error:
        assert not appended
        assert str(error) == message  # the batch raises what one-at-a-time appends raise
        assert whole.structural_key() == before  # gates and num_cbits untouched
        return
    assert appended
    assert whole.structural_key() == one_by_one.structural_key()
