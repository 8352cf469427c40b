"""Reversible simulator: semantics, contract enforcement, exhaustive checks."""

import hashlib
import random

import pytest
from conftest import replaced
from hypothesis import given, settings, strategies as st

from qcla.builders import Design, build, cla_masks
from qcla.ir import (
    AncillaInit,
    Gate,
    GateKind,
    QubitRef,
    cnot,
    new_circuit,
    not_,
    temp_and,
    toffoli,
    uncompute,
)
from qcla import revsim
from qcla.lowering import lower

ZERO = AncillaInit.ZERO
from qcla.revsim import (
    SpentQubitUseError,
    UncomputeAssertionError,
    _check_batch,
    _transpose,
    exhaustive_check,
    initial_state,
    random_check,
    read_labeled,
    read_register,
    run_basis,
)


def test_out_of_place_addition_and_restoration():
    circ = build(Design.OUT_FT_QCLA1, 4)
    out = run_basis(circ, initial_state(circ, {"A": 5, "B": 7}))
    assert read_labeled(circ, out, "s") == 12
    assert read_register(circ, out, "A") == 5
    assert read_register(circ, out, "B") == 7


def test_in_place_carry_out():
    circ = build(Design.IN_FT_QCLA1, 4)
    out = run_basis(circ, initial_state(circ, {"A": 15, "B": 1}))
    assert read_register(circ, out, "B") == 0  # sum bits 0..3 of 16
    assert read_labeled(circ, out, "s") == 16  # s4 set on the Z register
    assert read_register(circ, out, "A") == 15


def test_uncompute_assertion_fires_on_violation():
    circ = new_circuit([("q", 2, None), ("anc", 1, [ZERO])])
    q0, q1, anc = QubitRef("q", 0), QubitRef("q", 1), QubitRef("anc", 0)
    circ.append(temp_and(q0, q1, anc))
    circ.append(not_(q0))  # corrupt a control before uncomputing
    circ.append(uncompute(q0, q1, anc))
    circ.append(cnot(anc, q1))  # a later violation must not mask the first one
    with pytest.raises(UncomputeAssertionError) as info:
        run_basis(circ, initial_state(circ, {"q": 0b11}))
    assert info.value.gate_index == 2


def test_and_on_a_spent_control_ends_the_run():
    """A temporary AND whose control was measured out raises at that gate, and
    the batch check reports it as the one failure of a run that stops there."""
    circ = new_circuit([("q", 2, None), ("anc", 2, [ZERO, ZERO])])
    q0, q1, anc0, anc1 = QubitRef("q", 0), QubitRef("q", 1), QubitRef("anc", 0), QubitRef("anc", 1)
    circ.extend([temp_and(q0, q1, anc0), uncompute(q0, q1, anc0), temp_and(anc0, q1, anc1)])
    with pytest.raises(SpentQubitUseError) as info:
        run_basis(circ, initial_state(circ, {"q": 0b11}))
    assert info.value.gate_index == 2 and info.value.qubit == anc0

    built = build(Design.OUT_FT_QCLA1, 3)
    spent = next(q for q, label in built.labels.items() if label == "spent")
    built.append(temp_and(spent, QubitRef("A", 0), built.allocate_ancilla()))
    report = _check_batch(built, "Out-FT-QCLA1", range(4**3))
    assert report.assertion_failures == [
        f"spent qubit {spent} used at gate {len(built.gates) - 1}"
    ]


_Q0, _Q1 = QubitRef("q", 0), QubitRef("q", 1)
_M0, _M1, _M2 = QubitRef("M", 0), QubitRef("M", 1), QubitRef("M", 2)

# (gate 4, the operand it reports) after M[0] and M[1] are spent by gates 0-3:
# the first spent operand in operand order
ON_SPENT = {
    "cnot-both": (cnot(_M1, _M0), _M1),
    "cnot-target": (cnot(_Q0, _M0), _M0),
    "toffoli-both-controls": (toffoli(_M1, _M0, _Q0), _M1),
    "toffoli-second-control": (toffoli(_Q0, _M1, _Q1), _M1),
    "toffoli-target": (toffoli(_Q0, _Q1, _M0), _M0),
    "and-both-controls": (temp_and(_M1, _M0, _M2), _M1),
    "and-second-control": (temp_and(_Q0, _M0, _M2), _M0),
    "not": (not_(_M1), _M1),
    "uncompute-both-controls": (uncompute(_M1, _M0, _Q0), _M1),
}


def _spent_m0_m1() -> list:
    return [temp_and(_Q0, _Q1, _M0), temp_and(_Q0, _Q1, _M1), uncompute(_Q0, _Q1, _M0),
            uncompute(_Q0, _Q1, _M1)]


@pytest.mark.parametrize("gate, first", ON_SPENT.values(), ids=ON_SPENT)
def test_a_gate_on_spent_operands_reports_the_first_one(gate, first):
    """The run stops at the gate with one failure, which names its index and
    the first spent operand."""
    circ = new_circuit([("q", 2, None), ("M", 3, [ZERO] * 3)])
    circ.extend(_spent_m0_m1() + [gate, not_(_Q0)])
    with pytest.raises(SpentQubitUseError) as info:
        run_basis(circ, initial_state(circ, {"q": 0b11}))
    assert (info.value.gate_index, info.value.qubit) == (4, first)
    assert str(info.value) == f"spent qubit {first} used at gate 4"
    bits, spent, failures = {_Q0: 0b0101, _Q1: 0b0011, _M0: 0, _M1: 0, _M2: 0}, set(), []
    assert revsim._run_masks(circ, bits, spent, 0b1111, failures) is False
    assert [(f.gate_index, f.qubit) for f in failures] == [(4, first)]
    assert spent == {_M0, _M1} and bits[_Q0] == 0b0101


def test_and_onto_a_spent_target_reinitializes_it():
    """The target leaves the spent set and holds the AND of the controls, on
    every slot; a CNOT may then read it and an uncompute spend it again."""
    circ = new_circuit([("q", 2, None), ("M", 3, [ZERO] * 3)])
    circ.extend(_spent_m0_m1() + [temp_and(_Q1, _Q0, _M0), cnot(_M0, _M2)])
    bits, spent, failures = {_Q0: 0b0101, _Q1: 0b0011, _M0: 0, _M1: 0, _M2: 0}, set(), []
    assert revsim._run_masks(circ, bits, spent, 0b1111, failures) is True
    assert failures == [] and spent == {_M1}
    assert bits == {_Q0: 0b0101, _Q1: 0b0011, _M0: 0b0001, _M1: 0b0001, _M2: 0b0001}
    circ.append(uncompute(_Q0, _Q1, _M0))
    for v in range(4):
        st = run_basis(circ, initial_state(circ, {"q": v}))
        assert st.spent == {_M0, _M1} and st.bits[_M2] == (v == 3)


def test_spent_qubit_use_rejected():
    circ = new_circuit([("q", 2, None), ("anc", 1, [ZERO])])
    q0, q1, anc = QubitRef("q", 0), QubitRef("q", 1), QubitRef("anc", 0)
    circ.append(temp_and(q0, q1, anc))
    circ.append(uncompute(q0, q1, anc))
    circ.append(cnot(anc, q0))  # spent ancilla used as a live control
    with pytest.raises(SpentQubitUseError):
        run_basis(circ, initial_state(circ, {"q": 0b11}))


def _spent_reuse(circ):
    spent = next(q for q, label in circ.labels.items() if label == "spent")
    circ.append(cnot(spent, QubitRef("A", 0)))
    return f"spent qubit {spent} used at gate {len(circ.gates) - 1}"


def _stale_and_target(circ):
    # X[1] holds sum bit s1: a live ancilla, nonzero on some inputs
    circ.append(temp_and(QubitRef("A", 0), QubitRef("B", 0), QubitRef("X", 1)))
    return f"AND target X[1] not fresh at gate {len(circ.gates) - 1}"


def _bad_uncompute(circ):
    a0, b0, anc = QubitRef("A", 0), QubitRef("B", 0), circ.allocate_ancilla()
    circ.extend([temp_and(a0, b0, anc), not_(a0), uncompute(a0, b0, anc), not_(a0)])
    return f"gate {len(circ.gates) - 2}: uncompute target {anc} wrong on"


@pytest.mark.parametrize("corrupt", [_spent_reuse, _stale_and_target, _bad_uncompute])
@pytest.mark.parametrize("check", ["exhaustive", "random"])
def test_batch_checks_report_contract_violations(monkeypatch, corrupt, check):
    """The batch checks enforce the same contract as run_basis and report it."""
    messages = []

    def corrupted_build(design, n):
        circ = build(design, n)
        messages.append(corrupt(circ))
        return circ

    monkeypatch.setattr("qcla.revsim.build", corrupted_build)
    if check == "exhaustive":
        report = exhaustive_check(Design.OUT_FT_QCLA1, 4)
    else:
        report = random_check(Design.OUT_FT_QCLA1, 16, pairs=64)
    assert not report.passed
    assert len(report.assertion_failures) == 1
    assert report.assertion_failures[0].startswith(messages[0])


def test_an_and_onto_the_written_sum_qubit_is_caught_by_the_executor():
    """X[0] of Out-FT-QCLA1 is a ZERO ancilla, so ``extend`` takes an AND onto
    it; X[0] holds s0 = a0 xor b0 by then, and the batch check reports the
    executor's fresh-target rule."""
    circ = build(Design.OUT_FT_QCLA1, 3)
    circ.append(temp_and(QubitRef("A", 1), QubitRef("B", 1), QubitRef("X", 0)))
    report = _check_batch(circ, "Out-FT-QCLA1", range(4**3))
    assert not report.passed
    assert report.assertion_failures == [
        f"AND target X[0] not fresh at gate {len(circ.gates) - 1}"
    ]


def test_missing_data_register_value():
    circ = build(Design.OUT_FT_QCLA1, 2)
    with pytest.raises(ValueError, match="needs an input value"):
        initial_state(circ, {"A": 1})


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", range(1, 7))
def test_exhaustive_all_designs(design, n):
    report = exhaustive_check(design, n)
    assert report.passed, report.summary()
    assert report.total == 4**n


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", [16, 32, 64])
def test_random_pairs_large_widths(design, n):
    report = random_check(design, n, pairs=1000, seed=1)
    assert report.passed, report.summary()
    assert report.total == 1000


def test_exhaustive_cap():
    with pytest.raises(ValueError):
        exhaustive_check(Design.OUT_FT_QCLA1, 7)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(1, 130), st.integers(1, 300), st.randoms(use_true_random=False))
def test_transpose_and_bit_sliced_oracle(width, slots, rng):
    """_transpose is its own inverse, and cla_masks gives the bit columns of a + b."""
    a = [rng.getrandbits(width) for _ in range(slots)]
    b = [rng.getrandbits(width) for _ in range(slots)]
    a_masks, b_masks = _transpose(a, width), _transpose(b, width)
    assert len(a_masks) == width and all(m >> slots == 0 for m in a_masks)
    for i in (0, width - 1):
        assert [(a_masks[i] >> j) & 1 for j in (0, slots - 1)] == [a[0] >> i & 1, a[-1] >> i & 1]
    assert _transpose(a_masks, slots) == a
    assert cla_masks(a_masks, b_masks) == _transpose([x + y for x, y in zip(a, b)], width + 1)


def test_transpose_of_no_rows_or_no_bits_is_all_zero():
    assert _transpose([], 3) == [0, 0, 0]
    assert _transpose([0, 0], 0) == []


def test_run_basis_rejects_a_clifford_t_circuit():
    circ = lower(build(Design.OUT_FT_QCLA1, 2))
    with pytest.raises(ValueError, match="executes Toffoli-level circuits only"):
        run_basis(circ, initial_state(circ, {"A": 1, "B": 2}))


@pytest.mark.parametrize("rows, width", [([4], 2), ([1, 2, 8], 3), ([-1], 4), ([1], 0)])
def test_transpose_rejects_rows_wider_than_width(rows, width):
    with pytest.raises(ValueError, match="does not fit"):
        _transpose(rows, width)


def _swap_toffoli_control(circ):
    # the first Toffoli merges g[0,1] and p[1,2]; A[0] replaces g[0,1]
    i = next(i for i, g in enumerate(circ.gates) if g.kind is GateKind.TOFFOLI)
    _, c2, tgt = circ.gates[i].qubits
    circ.gates[i] = Gate(GateKind.TOFFOLI, (QubitRef("A", 0), c2, tgt))


def _wrong_cnot_target(circ):
    # step 7 folds p1 into the carry holding s1; send it to s2 instead
    sums = {label: q for q, label in circ.labels.items()}
    i = circ.gates.index(cnot(QubitRef("B", 1), sums["s1"]))
    circ.gates[i] = cnot(QubitRef("B", 1), sums["s2"])


def _corrupted(monkeypatch, corrupt):
    circuits = []

    def corrupted_build(design, n):
        circ = build(design, n)
        corrupt(circ)
        circuits.append(circ)
        return circ

    monkeypatch.setattr("qcla.revsim.build", corrupted_build)
    return circuits


@pytest.mark.parametrize("corrupt", [_swap_toffoli_control, _wrong_cnot_target])
@pytest.mark.parametrize("check", ["exhaustive", "random"])
def test_fault_reports_match_single_input_runs(monkeypatch, corrupt, check):
    """Each reported row holds a + b and what run_basis computes on that input."""
    circuits = _corrupted(monkeypatch, corrupt)
    if check == "exhaustive":
        report = exhaustive_check(Design.OUT_FT_QCLA2, 4)
    else:
        report = random_check(Design.OUT_FT_QCLA2, 64, pairs=256, seed=3)
    assert not report.passed and not report.assertion_failures
    assert 0 < len(report.mismatches) <= 8
    circ, = circuits
    for a, b, expected, got in report.mismatches:
        assert expected == a + b
        assert got != a + b
        assert got == read_labeled(circ, run_basis(circ, initial_state(circ, {"A": a, "B": b})))


def test_exhaustive_rows_come_in_input_order(monkeypatch):
    _corrupted(monkeypatch, _wrong_cnot_target)
    report = exhaustive_check(Design.OUT_FT_QCLA1, 3)
    indices = [(a << 3) | b for a, b, _, _ in report.mismatches]
    assert indices == sorted(indices) and report.wrong > 8 == len(indices)


def test_summary_counts_every_wrong_sum(monkeypatch):
    """Without the last CNOT (A[0] -> X[0]) s0 is wrong whenever a0 = 1: the
    summary counts every such input, not the at most 8 reported rows."""
    circ = build(Design.OUT_FT_QCLA2, 4)
    assert circ.gates[-1] == cnot(QubitRef("A", 0), QubitRef("X", 0))
    circ = replaced(circ, gates=circ.gates[:-1])
    monkeypatch.setattr("qcla.revsim.build", lambda design, n: circ)
    report = exhaustive_check(Design.OUT_FT_QCLA2, 4)
    assert report.wrong == 128 and len(report.mismatches) == 8
    assert report.summary() == "Out-FT-QCLA2 n=4: 128/256 FAIL"
    report = random_check(Design.OUT_FT_QCLA2, 4, pairs=256, seed=1)
    rng = random.Random(1)
    wrong = sum(a & 1 for a, _ in [(rng.randrange(16), rng.randrange(16)) for _ in range(256)])
    assert report.wrong == wrong and len(report.mismatches) == 8
    assert report.summary() == f"Out-FT-QCLA2 n=4: {256 - wrong}/256 FAIL"


def test_corrupted_oracle_is_caught(monkeypatch):
    def off_on_slot_0(a_masks, b_masks):
        return [m ^ 1 for m in cla_masks(a_masks, b_masks)]

    monkeypatch.setattr("qcla.revsim.cla_masks", off_on_slot_0)
    with pytest.raises(AssertionError, match="oracle self-check failed at a=0 b=0"):
        exhaustive_check(Design.OUT_FT_QCLA1, 3)
    rng = random.Random(5)
    a, b = rng.randrange(2**16), rng.randrange(2**16)  # slot 0
    with pytest.raises(AssertionError, match=f"oracle self-check failed at a={a} b={b}$"):
        random_check(Design.OUT_FT_QCLA1, 16, pairs=32, seed=5)


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("which", [0, -1])
@pytest.mark.parametrize("check", ["exhaustive", "random"])
def test_dropped_uncompute_leaves_a_dirty_ancilla(monkeypatch, design, which, check):
    """Deleting one uncompute gate fails through the clean-ancilla rule."""

    def drop_uncompute(circ):
        del circ.gates[[i for i, g in enumerate(circ.gates) if g.kind is GateKind.UNCOMPUTE][which]]

    _corrupted(monkeypatch, drop_uncompute)
    if check == "exhaustive":
        report = exhaustive_check(design, 4)
    else:
        report = random_check(design, 4, pairs=256)
    assert not report.passed
    assert any(" not clean on " in f or " not fresh " in f for f in report.assertion_failures)


@pytest.mark.parametrize("pairs", [0, -1])
def test_random_check_needs_at_least_one_pair(pairs):
    with pytest.raises(ValueError, match=f"at least one pair, got {pairs}"):
        random_check(Design.OUT_FT_QCLA1, 8, pairs)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("design", list(Design))
def test_every_single_gate_deletion_fails_the_batch_check(design, n):
    """Each Toffoli-level gate matters: deleting any one fails the exhaustive
    check of the circuit handed to the core."""
    circ = build(design, n)
    assert _check_batch(circ, design.value, range(4**n)).passed
    for i in range(len(circ.gates)):
        mutant = replaced(circ, gates=circ.gates[:i] + circ.gates[i + 1 :])
        report = _check_batch(mutant, design.value, range(4**n))
        assert not report.passed, f"deleting gate {i} ({circ.gates[i]}) goes unseen"


def test_b_must_come_back_unless_the_sums_sit_on_it():
    """An out-of-place adder that leaves B changed fails restoration; the
    in-place adder, whose sum labels sit on B, is not asked for B."""
    circ = build(Design.OUT_FT_QCLA1, 3)
    circ.append(not_(QubitRef("B", 2)))
    report = _check_batch(circ, "Out-FT-QCLA1", range(4**3))
    assert report.restoration_failures == ["B[2] not restored"]
    assert not report.mismatches and not report.assertion_failures
    in_place = build(Design.IN_FT_QCLA1, 3)
    assert {q.reg for q in in_place.labeled("s").values()} >= {"B"}
    assert _check_batch(in_place, "In-FT-QCLA1", range(4**3)).passed


def test_unreadable_sums_fail_every_input():
    """Sum labels that do not spell bits 0..n leave no sum to compare: every
    input counts as wrong and the summary names the labels."""
    circ = build(Design.OUT_FT_QCLA1, 3)
    circ.labels[circ.labeled("s")[3]] = "spent"
    report = _check_batch(circ, "Out-FT-QCLA1", range(4**3))
    assert not report.passed and report.wrong == 64 and not report.mismatches
    assert report.summary() == (
        "Out-FT-QCLA1 n=3: 0/64 FAIL (sum labels cover bits [0, 1, 2], not 0..3)"
    )


def test_every_control_swap_fails_unless_the_and_is_unchanged():
    """Swap each control of each gate at n = 3 (the CNOT control; c1 or c2 of a
    Toffoli, temporary AND or uncompute) for every qubit outside the gate.
    Every mutant fails the batch check except five, and in each of those the
    swapped-in qubit differs from the one it replaces, but the AND of the
    controls is the original's on all 64 inputs: the temporary AND writes the
    same value and the uncompute's cc_z phase is the same, so the mutant is
    an equivalent circuit."""
    mutants, survivors = 0, []
    for design in Design:
        circ = build(design, 3)
        for i, (kind, ops, _) in enumerate(circ.gates):
            for pos in range(kind.arity - 1):
                for q in circ.qubits():
                    if q in ops:
                        continue
                    swapped = ops[:pos] + (q,) + ops[pos + 1 :]
                    gates = circ.gates[:i] + [Gate(kind, swapped)] + circ.gates[i + 1 :]
                    mutants += 1
                    if _check_batch(replaced(circ, gates=gates), design.value, range(64)).passed:
                        survivors.append((design, circ, i, ops, swapped))
    assert mutants == 771
    assert sorted((d.key, c.gates[i].kind.name) for d, c, i, _, _ in survivors) == [
        ("in1", "TEMP_AND"),
        ("in1", "UNCOMPUTE"),
        ("in1", "UNCOMPUTE"),
        ("out1", "UNCOMPUTE"),
        ("out1", "UNCOMPUTE"),
    ]
    for _, circ, i, ops, swapped in survivors:
        prefix = replaced(circ, gates=circ.gates[:i])
        differs = False
        for a in range(8):
            for b in range(8):
                bits = run_basis(prefix, initial_state(prefix, {"A": a, "B": b})).bits
                assert bits[ops[0]] & bits[ops[1]] == bits[swapped[0]] & bits[swapped[1]]
                differs |= any(bits[x] != bits[y] for x, y in zip(ops, swapped))
        assert differs


def _without_gate(circ, i):
    return replaced(circ, gates=circ.gates[:i] + circ.gates[i + 1 :])


@pytest.mark.parametrize(
    "design, i, wrong, mismatches, assertions, restoration",
    [
        (Design.OUT_FT_QCLA1, 3, 32,
         [(2, 0, 2, 0), (2, 1, 3, 1), (2, 2, 4, 6), (2, 3, 5, 7), (2, 4, 6, 4), (2, 5, 7, 5),
          (2, 6, 8, 10), (2, 7, 9, 11)],
         [], ["B[1] not restored"]),
        (Design.OUT_FT_QCLA1, 5, 8,
         [(1, 3, 4, 0), (1, 7, 8, 4), (3, 1, 4, 0), (3, 5, 8, 4), (5, 3, 8, 4), (5, 7, 12, 8),
          (7, 1, 8, 4), (7, 5, 12, 8)],
         ["gate 6: uncompute target Z[0] wrong on 8 inputs"], []),
        (Design.OUT_FT_QCLA1, 10, 0, [], ["ancilla Z[1] (spent) not clean on 12 inputs"], []),
        (Design.IN_FT_QCLA1, 8, 64,
         [(0, 0, 0, 3), (0, 1, 1, 2), (0, 2, 2, 1), (0, 3, 3, 0), (0, 4, 4, 7), (0, 5, 5, 6),
          (0, 6, 6, 5), (0, 7, 7, 4)],
         ["AND target X[0] not fresh at gate 16"], []),
        (Design.IN_FT_QCLA1, 17, 64,
         [(0, 0, 0, 3), (0, 1, 1, 2), (0, 2, 2, 1), (0, 3, 3, 0), (0, 4, 4, 7), (0, 5, 5, 6),
          (0, 6, 6, 5), (0, 7, 7, 4)],
         ["spent qubit X[0] used at gate 17"], []),
    ],
)
def test_single_gate_deletion_reports_are_pinned(
    design, i, wrong, mismatches, assertions, restoration
):
    """The whole report of a deletion at n = 3 on all inputs: wrong count,
    the first 8 rows, and every assertion and restoration message."""
    report = _check_batch(_without_gate(build(design, 3), i), design.value, range(64))
    assert report == revsim.CheckReport(
        design.value, 3, 64, wrong, mismatches, assertions, restoration
    )


def test_random_check_report_of_a_deletion_is_pinned(monkeypatch):
    circ = _without_gate(build(Design.IN_FT_QCLA2, 64), 100)
    monkeypatch.setattr("qcla.revsim.build", lambda design, n: circ)
    report = random_check(Design.IN_FT_QCLA2, 64, 256, seed=42)
    assert report == revsim.CheckReport("In-FT-QCLA2", 64, 256, 135, [
        (2053695854357871005, 5073395517033431291, 7127091371391302296, 7127091165232872088),
        (10060236952204337488, 7783083932390163561, 17843320884594501049, 17843320953313977785),
        (1728372192399379054, 10353144037217341363, 12081516229616720417, 12081516160897243681),
        (7795859673851708282, 2868090582056735625, 10663950255908443907, 10663950324627920643),
        (15983802509111602936, 5127707962509358039, 21111510471620960975, 21111510540340437711),
        (15386621650891716399, 6828633547593724649, 22215255198485441048, 22215255129765964312),
        (6999717485148024690, 10273909465475146180, 17273626950623170870, 17273626744464740662),
        (14314671872500839116, 15159582174570800377, 29474254047071639493, 29474253978352162757),
    ], ["gate 865: uncompute target Z[36] wrong on 135 inputs"], [])


@pytest.mark.parametrize(
    "design, digest",
    [
        (Design.OUT_FT_QCLA1, "6252fee60f50e16c6d409b28d7f2719395103e5b96a038635fd360365f38dbae"),
        (Design.OUT_FT_QCLA2, "123c31dc0042fb4e77adfedeacb1eb82720c0cf4cbd9c2dc52691e9de606c15c"),
        (Design.IN_FT_QCLA1, "9d3681c6c1be67e10745066abf1ff0ce2a63c6f7eed004a3a8dd13381129d54f"),
        (Design.IN_FT_QCLA2, "0000bb98de57e1e63d27a55b7d2acbdf0501888de42a19dbb3b8dc5a2631cf12"),
    ],
)
def test_single_gate_deletion_reports_digest(design, digest):
    """sha256 over repr of the report of every single-gate deletion at n = 3,
    in gate order, checked on all inputs."""
    circ = build(design, 3)
    h = hashlib.sha256()
    for i in range(len(circ.gates)):
        h.update(repr(_check_batch(_without_gate(circ, i), design.value, range(64))).encode())
    assert h.hexdigest() == digest


def test_transpose_edge_cases():
    assert _transpose([], 0) == []
    assert _transpose([], 2) == [0, 0]
    assert _transpose([0, 0, 0], 0) == []
    assert _transpose([0b111], 3) == [1, 1, 1]
    assert _transpose([0b100, 0b011], 3) == [0b10, 0b10, 0b01]
    assert _transpose([2**70 - 1, 2**69], 70) == [1] * 69 + [3]
    for rows, width in [([-1], 3), ([0, 2**3], 3), ([0, -2**80], 80), ([1], 0)]:
        with pytest.raises(ValueError) as info:
            _transpose(rows, width)
        assert str(info.value) == f"transpose row does not fit in {width} bits"


def test_pack_writes_each_row_into_a_byte_aligned_field():
    assert revsim._pack([1, 2, 3], 9) == (1 | 2 << 16 | 3 << 32, 16)
    assert revsim._pack([0b1011], 8) == (0b1011, 8)
    assert revsim._pack([], 0) == (0, 8)  # a field of at least one byte
    assert revsim._columns(*revsim._pack([0b10, 0b11], 2), 2, 2) == [0b10, 0b11]


def _bit_columns(values, width):
    return [sum((v >> k & 1) << j for j, v in enumerate(values)) for k in range(width)]


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    st.integers(1, 130).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.one_of(st.just(2**n - 1), st.integers(0, 2**n - 1)),
                    st.one_of(st.just(2**n - 1), st.integers(0, 2**n - 1)),
                ),
                min_size=1,
                max_size=40,
            ),
        )
    ),
    st.data(),
)
def test_native_sums_of_the_batch_are_per_input_sums(case, data):
    """The oracle self-check compares against native a + b on every input: an
    oracle that returns the bit columns of per-input a + b passes it, and one
    wrong on a chosen slot is named by that slot's operands."""
    n, pairs = case
    pairs = pairs + [(2**n - 1, 2**n - 1)]  # the carry into bit n on every example
    circ = new_circuit([("A", n, None), ("B", n, None)])
    inputs = [a << n | b for a, b in pairs]
    columns = _bit_columns([a + b for a, b in pairs], n + 1)
    real = revsim.cla_masks  # patched by hand: hypothesis reruns the body per example
    try:
        revsim.cla_masks = lambda a_masks, b_masks: list(columns)
        assert _check_batch(circ, "sum", inputs).total == len(pairs)
        slot = data.draw(st.integers(0, len(pairs) - 1))
        bit = data.draw(st.integers(0, n))
        columns[bit] ^= 1 << slot
        a, b = pairs[slot]
        with pytest.raises(AssertionError, match=f"oracle self-check failed at a={a} b={b}$"):
            _check_batch(circ, "sum", inputs)
    finally:
        revsim.cla_masks = real
