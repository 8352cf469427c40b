"""Statevector simulation: gadget certification, branching, determinism."""

import cmath
import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from qcla.builders import Design, build, cla_reference
from qcla.ir import (
    AncillaInit,
    Circuit,
    CircuitError,
    Gate,
    Level,
    QubitRef,
    cc_x,
    t,
    tdg,
    temp_and,
    toffoli,
    uncompute,
    z,
)
from qcla.lowering import GADGETS, _gadget_row, lower, lower_temporary_and, lower_uncompute
from qcla import statevec
from qcla.revsim import UncomputeAssertionError, initial_state, read_labeled, run_basis
from qcla.statevec import (
    AllBranches,
    FixedOutcomes,
    MAGIC_A_STATE,
    SeededRandom,
    SimulationError,
    _basis,
    _max_dev_mod_phase,
    _run_branches,
    gadget_unitary_check,
    simulate,
)

Q = [QubitRef("q", i) for i in range(3)]
POS = {q: i for i, q in enumerate(Q)}


def _row_named(name):
    """(kind, row) of the gadget table row with certificate name ``name``."""
    return next((kind, row) for kind, row in GADGETS.items() if row.name == name)


def _heavier_half(state, mask):
    """The part of ``state`` on the likelier value of one qubit, that qubit's
    bit cleared (not renormalised)."""
    p1 = sum(abs(v) ** 2 for k, v in state.items() if k & mask)
    keep = mask if p1 > 0.5 else 0
    return {k & ~mask: v for k, v in state.items() if k & mask == keep}


@pytest.mark.parametrize("gadget", ["toffoli", "and", "and_uncompute_pair"])
def test_gadget_certification(gadget):
    chk = gadget_unitary_check(gadget)
    assert chk.passed, f"{gadget}: max deviation {chk.max_deviation}"
    assert chk.max_deviation < 1e-10


def _lower_one(kind):
    """The gates ``lower`` emits for one gate of ``kind`` on q[0], q[1], q[2]."""
    circ = Circuit(level=Level.TOFFOLI)
    circ.add_register("q", 3, [AncillaInit.ZERO] * 3)
    circ.append(Gate(kind, tuple(Q)))
    return lower(circ).gates


def _plant(monkeypatch, name, mutate):
    """Plant in the table row named ``name`` the gate list that
    ``mutate(gates, operands)`` makes of the real one, check that ``lower``
    emits it, and return the row's check."""
    kind, row = _row_named(name)

    def planted(*operands):
        return mutate(row.gadget(*operands), operands)

    monkeypatch.setitem(GADGETS, kind, _gadget_row(name, planted, row.t_cost, row.prep))
    assert _lower_one(kind) == planted(*Q)
    return gadget_unitary_check(name)


@pytest.mark.parametrize("gadget, patched", [
    ("toffoli", "lower_toffoli"),
    ("and", "lower_temporary_and"),
    ("and_uncompute_pair", "lower_uncompute"),
])
def test_gadget_certification_sees_relative_phase(monkeypatch, gadget, patched):
    """A Z on a control gives the inputs different phases; the check fails."""
    assert _row_named(gadget)[1].gadget.__name__ == patched
    chk = _plant(monkeypatch, gadget, lambda gates, q: gates + [z(q[0])])
    assert not chk.passed, f"{gadget}: max deviation {chk.max_deviation}"


# (row name, its gadget function, its gate count): every gate list in the
# gadget table, 16 + 13 + 2 = 31 single-gate deletions
GADGET_GATES = [
    ("toffoli", "lower_toffoli", 16),
    ("and", "lower_temporary_and", 13),
    ("and_uncompute_pair", "lower_uncompute", 2),
]


@pytest.mark.parametrize("gadget, patched, size", GADGET_GATES)
def test_every_single_gate_deletion_fails_the_gadget_check(monkeypatch, gadget, patched, size):
    _kind, row = _row_named(gadget)
    assert row.gadget.__name__ == patched and len(row.gadget(*Q)) == size
    for i in range(size):
        chk = _plant(monkeypatch, gadget, lambda gates, _q, i=i: gates[:i] + gates[i + 1 :])
        assert not chk.passed, f"{gadget}: deleting gate {i} of {patched} goes unseen"


@pytest.mark.parametrize("gadget", ["toffoli", "and", "and_uncompute_pair"])
def test_a_t_count_off_the_declared_cost_fails_the_gadget_check(monkeypatch, gadget):
    """T then T-dagger on a control changes no amplitude but adds two T gates;
    a declared cost one off the gate list's fails as well."""
    chk = _plant(monkeypatch, gadget, lambda gates, q: gates + [t(q[0]), tdg(q[0])])
    assert (chk.passed, chk.max_deviation < 1e-10) == (False, True)
    kind, row = _row_named(gadget)
    for cost in (row.t_cost - 1, row.t_cost + 1):
        monkeypatch.setitem(GADGETS, kind, row._replace(t_cost=cost))
        chk = gadget_unitary_check(gadget)
        assert (chk.passed, chk.max_deviation < 1e-10) == (False, True)


def test_pair_without_its_measurement_leaves_the_ancilla_entangled(monkeypatch):
    """Without measure_x the ancilla keeps x AND y and the cc_z never fires:
    the ancilla must end at 0, so the check fails outright on all 4 inputs."""
    chk = _plant(monkeypatch, "and_uncompute_pair", lambda gates, _q: gates[1:])
    assert (chk.passed, chk.max_deviation, chk.cases) == (False, 1.0, 4)


def _bits(state):
    """The (q[0], q[1], q[2]) bits of a basis state."""
    (k,) = state
    return tuple(k >> i & 1 for i in range(3))


# each row's certificate cases as the revsim executor yields them, written
# out: ((x, y, t) in, (x, y, t) expected out), a measured-out target at 0
EXECUTOR_CASES = {
    "toffoli": [
        ((0, 0, 0), (0, 0, 0)), ((0, 0, 1), (0, 0, 1)), ((0, 1, 0), (0, 1, 0)),
        ((0, 1, 1), (0, 1, 1)), ((1, 0, 0), (1, 0, 0)), ((1, 0, 1), (1, 0, 1)),
        ((1, 1, 0), (1, 1, 1)), ((1, 1, 1), (1, 1, 0)),
    ],
    "and": [  # a fresh target only; it gets x AND y
        ((0, 0, 0), (0, 0, 0)), ((0, 1, 0), (0, 1, 0)),
        ((1, 0, 0), (1, 0, 0)), ((1, 1, 0), (1, 1, 1)),
    ],
    "and_uncompute_pair": [  # a target equal to x AND y only; it is measured out
        ((0, 0, 0), (0, 0, 0)), ((0, 1, 0), (0, 1, 0)),
        ((1, 0, 0), (1, 0, 0)), ((1, 1, 1), (1, 1, 0)),
    ],
}


@pytest.mark.parametrize("gadget", EXECUTOR_CASES)
def test_the_certificate_cases_are_the_executors(monkeypatch, gadget):
    """The cases handed to the certificate are the table above, in input order,
    and the check reports their number."""
    handed = []
    certify = statevec._certify

    def recording(gates, cases, pos):
        handed.append(list(cases))
        return certify(gates, cases, pos)

    monkeypatch.setattr(statevec, "_certify", recording)
    chk = gadget_unitary_check(gadget)
    assert chk.passed
    assert [(_bits(start), _bits(want)) for start, want in handed[0]] == EXECUTOR_CASES[gadget]
    assert chk.cases == len(EXECUTOR_CASES[gadget])


@pytest.mark.parametrize("gadget", EXECUTOR_CASES)
def test_a_row_with_no_case_fails(monkeypatch, gadget):
    """An executor that refuses every input leaves no case, and the row fails."""

    def refuse_all(circ, bits, spent, full, failures):
        failures.append(UncomputeAssertionError(0))
        return False

    monkeypatch.setattr(statevec, "_run_masks", refuse_all)
    chk = gadget_unitary_check(gadget)
    assert (chk.passed, chk.max_deviation < 1e-10, chk.cases) == (False, True, 0)


def test_the_certificate_names_are_the_row_names():
    """Acceptance criterion 5 and the benchmark pass these three names."""
    names = [row.name for row in GADGETS.values()]
    assert sorted(names) == ["and", "and_uncompute_pair", "toffoli"]
    assert all(gadget_unitary_check(name).passed for name in names)
    for other in ("temp_and", "uncompute", "Toffoli"):
        with pytest.raises(ValueError, match=f"^unknown gadget '{other}'$"):
            gadget_unitary_check(other)


def _reset_deviation(gates):
    """Worst deviation of ``gates`` from |x, y, x AND y> to |x, y, 0>, under one
    phase per measurement record, every branch compared as it stands."""
    by_record = {}
    for x, y in product((0, 1), repeat=2):
        for state, _prob, cbits in _run_branches(gates, POS, _basis(x, y, x & y), [0, 0]):
            by_record.setdefault(cbits, []).append((state, _basis(x, y, 0)))
    return max(_max_dev_mod_phase(cases) for cases in by_record.values())


def test_the_reset_before_a_reused_and_target_returns_it_to_zero():
    """``lower`` resets a reused AND target by ``cc_x`` on the bit of its last
    uncompute; the reset left out or on the wrong bit leaves the target at 1
    in the outcome-1 branches."""
    circ = Circuit(level=Level.TOFFOLI)
    circ.add_register("q", 3, [AncillaInit.ZERO] * 3)
    circ.append(uncompute(*Q))
    circ.append(temp_and(*Q))
    gates = lower(circ).gates
    assert gates[:3] == lower_uncompute(*Q) + [cc_x(0, Q[2])]
    assert _reset_deviation(gates[:3]) == 0.0
    assert _reset_deviation(gates[:2]) == 1.0
    assert _reset_deviation(gates[:2] + [cc_x(1, Q[2])]) == 1.0  # a bit never measured
    assert _reset_deviation(gates[:2] + [cc_x(0, Q[0])]) == 1.0  # a control, not the target


def test_and_gadget_truth_table():
    q = [QubitRef("q", i) for i in range(3)]
    pos = {qi: i for i, qi in enumerate(q)}
    gates = lower_temporary_and(q[0], q[1], q[2])
    for x in (0, 1):
        for y in (0, 1):
            (state, prob, _), = _run_branches(gates, pos, _basis(x, y, 0), [])
            want = _basis(x, y, x & y)
            keys = state.keys() | want.keys()
            assert max(abs(state.get(k, 0) - want.get(k, 0)) for k in keys) < 1e-12
            assert prob == 1.0


def test_and_uncompute_restores_superposed_controls():
    """Both measurement branches return the controls to the pre-AND state."""
    q = [QubitRef("q", i) for i in range(3)]
    pos = {qi: i for i, qi in enumerate(q)}
    gates = (
        lower_temporary_and(q[0], q[1], q[2])
        + lower_uncompute(q[0], q[1], q[2], cbit=0)
    )
    plus_plus = {k: 0.5 + 0j for k in range(4)}  # |+>|+> on the controls
    branches = _run_branches(gates, pos, plus_plus, [0])
    assert len(branches) == 2
    for state, prob, _ in branches:
        # trace out the (now classical) ancilla and compare the control state
        controls = _heavier_half(state, 1 << 2)
        fidelity = abs(sum(plus_plus[k].conjugate() * v for k, v in controls.items()))
        assert fidelity >= 1 - 1e-10
        assert abs(prob - 0.5) < 1e-12


def test_magic_state_constant():
    assert abs(MAGIC_A_STATE[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(MAGIC_A_STATE[1] - cmath.exp(1j * math.pi / 4) / math.sqrt(2)) < 1e-15


def test_all_branches_read_same_sum():
    circ = lower(build(Design.OUT_FT_QCLA1, 2))
    outs = simulate(circ, {"A": 1, "B": 3}, AllBranches())
    assert {o.labeled_int("s") for o in outs} == {4}
    assert abs(sum(o.probability for o in outs) - 1) < 1e-9


@pytest.mark.parametrize("design", list(Design))
def test_agreement_with_reversible_sim(design):
    for n in (1, 2, 3):
        circ = build(design, n)
        lowered = lower(circ)
        for a, b in ((0, 0), (1, 2**n - 1), (2**n - 1, 2**n - 1)):
            expect = read_labeled(circ, run_basis(circ, initial_state(circ, {"A": a, "B": b})), "s")
            assert expect == a + b
            outs = simulate(lowered, {"A": a, "B": b}, AllBranches())
            assert {o.labeled_int("s") for o in outs} == {expect}
            seeded, = simulate(lowered, {"A": a, "B": b}, SeededRandom(7))
            assert seeded.labeled_int("s") == expect


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_outcome_independence_exhaustive(design, n):
    """Every basis input, every branch: identical labeled readout of the sum."""
    circ = lower(build(design, n))
    for a in range(2**n):
        for b in range(2**n):
            outs = simulate(circ, {"A": a, "B": b}, AllBranches())
            assert {o.labeled_int("s") for o in outs} == {a + b}
            assert abs(sum(o.probability for o in outs) - 1) < 1e-9


def test_fixed_outcomes_single_branch():
    circ = lower(build(Design.OUT_FT_QCLA1, 2))
    outs = simulate(circ, {"A": 3, "B": 3}, AllBranches())
    record = outs[-1].cbits
    forced, = simulate(circ, {"A": 3, "B": 3}, FixedOutcomes(record))
    assert forced.cbits == record
    assert forced.labeled_int("s") == 6


@pytest.mark.parametrize("value", [2, -1, 1.0, True, False])
def test_fixed_outcomes_must_be_bits(value):
    """Each outcome is an ``int`` 0 or 1; a ``bool`` is not, so no record
    comes back holding ``True`` for a bit."""
    circ = lower(build(Design.OUT_FT_QCLA1, 2))
    with pytest.raises(SimulationError, match="must each be 0 or 1"):
        simulate(circ, {"A": 3, "B": 3}, FixedOutcomes((value,) * circ.num_cbits))


def test_two_labels_spelling_one_index_raise():
    """``simulate`` reads the sum-bit map as ``Circuit.labeled`` does: an ``s01``
    next to an ``s1`` is an error, not two bits ORed into one."""
    circ = lower(build(Design.OUT_FT_QCLA1, 2))
    circ.labels[QubitRef("A", 0)] = "s01"
    with pytest.raises(CircuitError, match="both carry s1"):
        simulate(circ, {"A": 0, "B": 2}, SeededRandom(1))


@pytest.mark.parametrize("extra", [-1, 1])
def test_fixed_outcomes_must_cover_every_measurement(extra):
    circ = lower(build(Design.OUT_FT_QCLA1, 2))
    k = circ.num_cbits + extra
    message = f"^{k} forced outcomes for {circ.num_cbits} measurements$"
    with pytest.raises(SimulationError, match=message):
        simulate(circ, {"A": 3, "B": 3}, FixedOutcomes((0,) * k))


def test_simulate_rejects_a_toffoli_level_circuit():
    message = r"^statevector simulation expects a Clifford\+T circuit$"
    with pytest.raises(SimulationError, match=message):
        simulate(build(Design.OUT_FT_QCLA1, 2), {"A": 1, "B": 2})


def test_a_labelled_output_left_in_superposition_is_not_classical():
    from qcla.ir import h as h_gate

    circ = Circuit(level=Level.CLIFFORD_T)
    circ.add_register("q", 1, None)
    q = QubitRef("q", 0)
    circ.append(h_gate(q))
    circ.labels[q] = "s0"
    message = r"^labeled output s0 on q\[0\] is not classical"
    with pytest.raises(SimulationError, match=message) as err:
        simulate(circ, {"q": 0})
    assert float(str(err.value).split("p1=")[1].rstrip(")")) == pytest.approx(0.5)


def test_fixed_outcomes_rejects_impossible_record():
    # a lone X-basis measurement of |0> yields both outcomes, but forcing an
    # outcome on a qubit held in a basis state after H is fine; instead force
    # an impossible record via a deterministic measurement
    from qcla.ir import h as h_gate, measure_x

    circ = Circuit(level=Level.CLIFFORD_T)
    circ.add_register("q", 1, None)
    q = QubitRef("q", 0)
    circ.append(h_gate(q))  # |+>; X-basis measure of |+> is deterministic 0
    circ.append(measure_x(q))
    with pytest.raises(SimulationError, match="zero probability"):
        simulate(circ, {"q": 0}, FixedOutcomes((1,)))


def test_branch_cap_enforced():
    circ = lower(build(Design.OUT_FT_QCLA1, 8))  # 40 qubits
    with pytest.raises(SimulationError, match="exceeds the cap"):
        simulate(circ, {"A": 0, "B": 0}, AllBranches())


def test_branch_probabilities_uniform_for_basis_inputs():
    circ = lower(build(Design.IN_FT_QCLA1, 3))
    outs = simulate(circ, {"A": 5, "B": 3}, AllBranches())
    assert len(outs) == 32
    for o in outs:
        assert abs(o.probability - 1 / 32) < 1e-12
        assert o.labeled_int("s") == 8


@pytest.mark.parametrize("design", list(Design))
def test_seeded_branch_reads_sum_at_n64(design):
    """The emitted Clifford+T stream adds correctly at n = 64."""
    n = 64
    circ = lower(build(design, n))
    rng = random.Random(design.key)
    for _ in range(3):
        a, b = rng.randrange(2**n), rng.randrange(2**n)
        out, = simulate(circ, {"A": a, "B": b}, SeededRandom(rng.randrange(2**32)))
        assert out.labeled_int("s") == cla_reference(a, b, n)


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("n", [16, 64])
def test_all_zero_outcomes_keep_the_norm(design, n):
    """Projection renormalises by the kept amplitudes, so a long run of outcome-0
    measurements does not drift the state norm."""
    circ = lower(build(design, n))
    a, b = 2**n - 1, 1
    out, = simulate(circ, {"A": a, "B": b}, FixedOutcomes((0,) * circ.num_cbits))
    assert out.labeled_int("s") == a + b
    assert out.probability == pytest.approx(2.0**-circ.num_cbits, rel=1e-9)


def test_amplitude_cap_enforced(monkeypatch):
    from qcla import statevec
    from qcla.ir import h as h_gate

    circ = Circuit(level=Level.CLIFFORD_T)
    circ.add_register("q", 4, None)
    for i in range(4):
        circ.append(h_gate(QubitRef("q", i)))
    monkeypatch.setattr(statevec, "AMPLITUDE_CAP", 8)
    with pytest.raises(SimulationError, match="live amplitudes exceed the cap of 8"):
        simulate(circ, {"q": 0}, AllBranches())


def test_import_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # import qcla alone loads neither simulator, so name each module checked
    code = ("import qcla, qcla.statevec, qcla.revsim, qcla.validate, sys\n"
            "assert 'numpy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def test_gadget_unitary_check_rejects_an_unknown_gadget():
    with pytest.raises(ValueError, match="^unknown gadget 'bogus'$"):
        gadget_unitary_check("bogus")


def test_branching_executor_rejects_a_toffoli_level_gate():
    q = [QubitRef("q", i) for i in range(3)]
    with pytest.raises(SimulationError, match="^unsupported gate kind GateKind.TOFFOLI$"):
        _run_branches([toffoli(*q)], {qi: i for i, qi in enumerate(q)}, _basis(1, 1, 0), [])
