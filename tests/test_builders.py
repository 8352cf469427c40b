"""Builders: round enumeration identities, the classical oracle, circuit shape."""

import hashlib
import random
import re

import pytest

from qcla.builders import (
    Design,
    RoundKind,
    _Net,
    build,
    cla_reference,
    design_from_key,
    round_indices,
)
from qcla.ir import Circuit, CircuitError, GateKind, QubitRef, new_circuit, temp_and
from qcla.jsonio import to_json
from qcla.lowering import lower
from qcla.qasm import to_qasm3
from qcla.resources import floor_log2, hamming_weight
from qcla.revsim import _run_masks


def test_p_rounds_n8():
    assert [(tr.j, tr.k, tr.l) for tr in round_indices(RoundKind.P, 8)] == [
        (2, 4, 3),
        (4, 6, 5),
        (6, 8, 7),
        (4, 8, 6),
    ]


def test_g_rounds_n8():
    assert [(tr.j, tr.k, tr.l) for tr in round_indices(RoundKind.G, 8)] == [
        (0, 2, 1),
        (2, 4, 3),
        (4, 6, 5),
        (6, 8, 7),
        (0, 4, 2),
        (4, 8, 6),
        (0, 8, 4),
    ]


def test_c_rounds_n8():
    assert [(tr.l, tr.k) for tr in round_indices(RoundKind.C, 8)] == [
        (4, 6),
        (2, 3),
        (4, 5),
        (6, 7),
    ]


def test_p_rounds_empty_for_n2():
    assert round_indices(RoundKind.P, 2) == []


@pytest.mark.parametrize(
    "n", [*range(1, 65), *(2**k + d for k in range(7, 13) for d in (-1, 0, 1))]
)
def test_round_counts_match_stage_formulas(n):
    """The forward stage counts at width n and the paper's reverse-stage
    counts, which are the forward rounds at width n - 1.  No form is ever
    negative, so ``resources`` sums them unclamped."""
    w, lg = hamming_weight(n), floor_log2(n)
    assert len(round_indices(RoundKind.P, n)) == n - w - lg
    assert len(round_indices(RoundKind.G, n)) == n - w
    assert len(round_indices(RoundKind.C, n)) == n - lg - 1
    if n >= 2:
        w1, lg1 = hamming_weight(n - 1), floor_log2(n - 1)
        assert len(round_indices(RoundKind.P, n - 1)) == n - 1 - w1 - lg1
        assert len(round_indices(RoundKind.C, n - 1)) == n - lg1 - 2
        assert len(round_indices(RoundKind.G, n - 1)) == n - 1 - w1


@pytest.mark.parametrize("n", range(2, 40))
def test_erase_rounds_cover_compute_rounds(n):
    """Every computed propagate span has a matching erase, at the forward
    width n and at the reverse width n - 1; erasure runs the levels in the
    opposite order."""
    for width in (n, n - 1):
        spans, erase = round_indices(RoundKind.P, width), round_indices(RoundKind.P_ERASE, width)
        assert set(erase) == set(spans)
        assert [tr.t for tr in erase] == sorted((tr.t for tr in spans), reverse=True)


def test_triple_ordering_invariant():
    for n in (1, 3, 8, 21, 64):
        for kind in RoundKind:
            for tr in round_indices(kind, n):
                assert 0 <= tr.j < tr.l < tr.k <= n


def test_literal_reverse_bounds_differ():
    # the printed width-n recompute bound, the forward span set, leaves spans
    # unerased; the reverse half runs the network at width n - 1
    literal = round_indices(RoundKind.P, 8)
    fixed = round_indices(RoundKind.P, 7)
    assert len(literal) == 4 and len(fixed) == 2
    assert set(fixed) < set(literal)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
@pytest.mark.parametrize("use_pairs", [True, False])
def test_backwards_rounds_undo_the_forward_rounds(n, use_pairs):
    """Through the executor, on 64 random slots: the network run forwards
    over generate bits on A and propagate bits on B leaves carry c_k on
    A[k - 1]; run backwards at the same width its gates give every A and B
    qubit back and leave every ancilla clean, and the span map is as it was."""
    circ = new_circuit([("A", n, None), ("B", n, None)], ancilla_register="X")
    A = [QubitRef("A", i) for i in range(n)]
    B = [QubitRef("B", i) for i in range(n)]
    net = _Net(circ, use_pairs, A)
    net.p = {(i, i + 1): B[i] for i in range(1, n)}
    start = dict(net.p)
    net.rounds(n)
    assert net.p == start
    halfway = len(net.gates)
    net.rounds(n, backwards=True)
    assert net.p == start
    circ.extend(net.gates)

    rng = random.Random(n)
    a = [rng.getrandbits(64) for _ in range(n)]
    b = [rng.getrandbits(64) for _ in range(n)]
    g = [x & y for x, y in zip(a, b)]
    p = [x ^ y for x, y in zip(a, b)]
    bits = dict.fromkeys(circ.qubits(), 0) | dict(zip(A, g)) | dict(zip(B, p))
    spent, failures = set(), []
    forward = Circuit(gates=circ.gates[:halfway])
    assert _run_masks(forward, bits, spent, (1 << 64) - 1, failures) and not failures
    c = 0
    for k in range(1, n + 1):
        c = g[k - 1] | p[k - 1] & c
        assert bits[A[k - 1]] == c, f"carry c{k}"
    backward = Circuit(gates=circ.gates[halfway:])
    assert _run_masks(backward, bits, spent, (1 << 64) - 1, failures) and not failures
    assert [bits[q] for q in A] == g and [bits[q] for q in B] == p
    assert all(q in spent or not bits[q] for q in circ.qubits() if q.reg == "X")


@pytest.mark.parametrize("kind", [RoundKind.P, RoundKind.G, RoundKind.C, RoundKind.P_ERASE])
def test_forward_rounds_need_one_bit(kind):
    with pytest.raises(ValueError, match=r"^rounds require n >= 1$"):
        round_indices(kind, 0)
    assert round_indices(kind, 1) == []


@pytest.mark.parametrize(
    "design, facts",
    [
        (Design.OUT_FT_QCLA1, ("Out-FT-QCLA1", "out1", False, True)),
        (Design.OUT_FT_QCLA2, ("Out-FT-QCLA2", "out2", False, False)),
        (Design.IN_FT_QCLA1, ("In-FT-QCLA1", "in1", True, True)),
        (Design.IN_FT_QCLA2, ("In-FT-QCLA2", "in2", True, False)),
    ],
)
def test_design_facts(design, facts):
    """(value, key, in_place, uses_and_pairs), and lookup by key or label."""
    assert (design.value, design.key, design.in_place, design.uses_and_pairs) == facts
    assert Design(facts[0]) is design
    assert design_from_key(facts[1]) is design
    assert design_from_key(facts[0]) is design


@pytest.mark.parametrize("key", ["out3", "Out-FT-QCLA", "OUT1", "OUT_FT_QCLA1", ""])
def test_design_from_key_rejects_unknown(key):
    with pytest.raises(ValueError, match="unknown design"):
        design_from_key(key)


def test_cla_reference_examples():
    assert cla_reference(5, 7, 4) == 12
    assert cla_reference(0, 0, 4) == 0
    assert cla_reference(15, 1, 4) == 16  # ripple-all carry-out


def test_cla_reference_rejects_out_of_range():
    with pytest.raises(ValueError):
        cla_reference(4, 0, 2)
    with pytest.raises(ValueError):
        cla_reference(0, -1, 2)
    with pytest.raises(ValueError, match=r"^width must be >= 1$"):
        cla_reference(0, 0, 0)


def test_round_indices_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown round kind p$"):
        round_indices("p", 4)


@pytest.mark.parametrize("n", range(1, 9))
def test_cla_reference_exhaustive(n):
    for a in range(2**n):
        for b in range(2**n):
            assert cla_reference(a, b, n) == a + b


def test_cla_reference_random_n64():
    rng = random.Random(0)
    for _ in range(10_000):
        a, b = rng.randrange(2**64), rng.randrange(2**64)
        assert cla_reference(a, b, 64) == a + b


def test_build_rejects_zero_width():
    for design in Design:
        with pytest.raises(Exception):
            build(design, 0)


@pytest.mark.parametrize("design", list(Design))
def test_build_deterministic(design):
    assert to_json(build(design, 9)) == to_json(build(design, 9))


@pytest.mark.parametrize("design", list(Design))
def test_build_output_is_checked_by_the_circuit_rules(design, monkeypatch):
    """A temporary AND the builders aim at a data qubit fails the build with
    the circuit rule's message."""

    def misdirected(c1, c2, target):
        data = next(q for q in (QubitRef("A", i) for i in range(3)) if q not in (c1, c2))
        return temp_and(c1, c2, data)

    monkeypatch.setattr("qcla.builders.temp_and", misdirected)
    with pytest.raises(CircuitError, match=r"temporary-AND target A\[\d\] is not an ancilla"):
        build(design, 4)


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", [1, 2, 7])
def test_build_validates_its_gates_in_one_batch(design, n, monkeypatch):
    calls = {"append": 0, "extend": 0}

    def counting(name):
        method = getattr(Circuit, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Circuit, name, counting(name))
    circ = build(design, n)
    assert calls == {"append": 0, "extend": 1}
    assert circ.gates


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_every_and_target_consumed_or_output(design, n):
    """Each temporary-AND write is later erased exactly once, or is a sum output."""
    circ = build(design, n)
    pending: dict = {}
    for gate in circ.gates:
        if gate.kind is GateKind.TEMP_AND:
            tgt = gate.qubits[2]
            assert pending.get(tgt, 0) == 0, f"{tgt} overwritten while live"
            pending[tgt] = pending.get(tgt, 0) + 1
        elif gate.kind is GateKind.UNCOMPUTE:
            tgt = gate.qubits[2]
            assert pending.get(tgt, 0) == 1, f"{tgt} erased while not live"
            pending[tgt] -= 1
    leftovers = [q for q, live in pending.items() if live]
    for q in leftovers:
        label = circ.labels.get(q, "")
        assert label.startswith("s"), f"unconsumed AND target {q} labeled {label!r}"


@pytest.mark.parametrize("design", list(Design))
def test_final_labels(design):
    """Every qubit ends labelled: A[i] a<i>, B[i] b<i> (out of place) or s<i>
    (in place), each ancilla s<i> or spent, and no other spelling."""
    b_prefix = "s" if design.in_place else "b"
    for n in range(1, 65):
        circ = build(design, n)
        assert set(circ.labels) == set(circ.qubits())
        for q, label in circ.labels.items():
            if q.reg == "A":
                assert label == f"a{q.index}"
            elif q.reg == "B":
                assert label == f"{b_prefix}{q.index}"
            else:
                assert circ.registers[q.reg].is_ancilla
                assert re.fullmatch(r"spent|s(0|[1-9][0-9]*)", label), (n, q, label)
        sums = circ.labeled("s")
        assert sorted(sums) == list(range(n + 1))
        if design.in_place:
            assert sums[n] == QubitRef("Z", n - 1)
        else:
            assert [sums[i] for i in range(n + 1)] == [QubitRef("X", i) for i in range(n + 1)]


def test_register_sizing_matches_design_contract():
    n = 8
    out1 = build(Design.OUT_FT_QCLA1, n)
    assert out1.registers["X"].size == n + 1
    assert out1.registers["Z"].size == 3 * n - 2 * hamming_weight(n) - 2 * floor_log2(n) - 1
    in1 = build(Design.IN_FT_QCLA1, n)
    assert in1.registers["Z"].size == n
    # reverse half reuses forward ancillae, so X stays at the forward-half size
    assert in1.registers["X"].size == 3 * n - 2 * hamming_weight(n) - 2 * floor_log2(n) - 1
    out2 = build(Design.OUT_FT_QCLA2, n)
    assert out2.registers["Z"].size == n - hamming_weight(n) - floor_log2(n)


def test_emitted_streams_digest():
    """Pins the JSON bytes of every lowered circuit at n = 1..16."""
    digest = hashlib.sha256()
    for design in Design:
        for n in range(1, 17):
            digest.update(to_json(lower(build(design, n))).encode())
    assert digest.hexdigest() == (
        "a49bfd3ab937d94fa21f1b1086c1e9ebd4ecdc2e1ec82f54b6d6f97863f7e4e2"
    )


def test_toffoli_level_digest():
    """Pins the JSON bytes of every Toffoli-level circuit at n = 1..16."""
    digest = hashlib.sha256()
    for design in Design:
        for n in range(1, 17):
            digest.update(to_json(build(design, n)).encode())
    assert digest.hexdigest() == (
        "bba2fe5177fba820649d3d62053e29ccdf3bb81f9eb7cae963b687f14141f8e1"
    )


def test_emitted_qasm_digest():
    """Pins the OpenQASM bytes of every lowered circuit at n = 1..16."""
    digest = hashlib.sha256()
    for design in Design:
        for n in range(1, 17):
            digest.update(to_qasm3(lower(build(design, n))).encode())
    assert digest.hexdigest() == (
        "f930ff00c81570e989f6d26c6d6c11443fa1b9b54e68261a496c4aab0ebf930f"
    )
