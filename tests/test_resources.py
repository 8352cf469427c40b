"""Resource analysis: bit helpers, counting, scheduling, cost models, savings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcla.builders import Design, build
from qcla.ir import (
    AncillaInit,
    Gate,
    GateKind,
    Level,
    QubitRef,
    T_KINDS,
    cc_x,
    cc_z,
    cnot,
    h as h_gate,
    measure_x,
    new_circuit,
    t as t_gate,
)
from qcla.jsonio import from_json, to_json
from qcla.lowering import lower, lower_temporary_and, lower_toffoli, lower_uncompute
from qcla.measure import count, schedule
from qcla.qasm import parse_qasm3, to_qasm3
from qcla.resources import (
    CATALOG,
    DESIGN_COSTS,
    IN_PLACE_BASELINES,
    OUT_OF_PLACE_BASELINES,
    floor_log2,
    formula_qubits,
    formula_tcount,
    hamming_weight,
    round_half_up,
    savings,
    savings_average,
)


def test_bit_helpers():
    assert hamming_weight(8) == 1 and floor_log2(8) == 3
    assert hamming_weight(7) == 3 and floor_log2(7) == 2
    assert hamming_weight(1) == 1 and floor_log2(1) == 0
    with pytest.raises(ValueError):
        floor_log2(0)
    with pytest.raises(ValueError):
        hamming_weight(-1)


def _single_gadget_circuit(gates, nq):
    from qcla.ir import Circuit

    circ = Circuit(level=Level.CLIFFORD_T)
    circ.add_register("q", nq, None)
    for g in gates:
        circ.append(g)
    return circ


def test_count_single_gadgets():
    q = [QubitRef("q", i) for i in range(3)]
    rep = count(_single_gadget_circuit(lower_toffoli(*q), 3))
    assert rep.t_count == 7 and rep.qubit_count == 3
    rep = count(_single_gadget_circuit(lower_temporary_and(*q), 3))
    assert rep.t_count == 4 and rep.measurement_count == 0
    rep = count(_single_gadget_circuit(lower_uncompute(*q), 3))
    assert rep.t_count == 0 and rep.measurement_count == 1


def test_count_invariants_on_builds():
    for design in Design:
        circ = lower(build(design, 6))
        rep = count(circ)
        hist = rep.gate_histogram
        assert rep.t_count == hist.get("t", 0) + hist.get("tdg", 0)
        assert rep.t_depth <= rep.t_count
        assert rep.qubit_count == circ.num_qubits


def test_toffoli_level_report_has_no_t_fields():
    rep = count(build(Design.OUT_FT_QCLA1, 4))
    assert rep.t_count is None and rep.t_depth is None
    assert rep.total_depth > 0


def test_schedule_disjoint_cnots_depth_1():
    circ = new_circuit([("q", 4, None)])
    circ.append(cnot(QubitRef("q", 0), QubitRef("q", 1)))
    circ.append(cnot(QubitRef("q", 2), QubitRef("q", 3)))
    assert schedule(circ)[0] == 1


def test_schedule_t_depth_sequencing():
    circ = new_circuit([("q", 2, None)], level=Level.CLIFFORD_T)
    circ.append(t_gate(QubitRef("q", 0)))
    circ.append(t_gate(QubitRef("q", 0)))
    assert schedule(circ)[1] == 2
    circ2 = new_circuit([("q", 2, None)], level=Level.CLIFFORD_T)
    circ2.append(t_gate(QubitRef("q", 0)))
    circ2.append(t_gate(QubitRef("q", 1)))
    assert schedule(circ2)[1] == 1



def test_schedule_cc_gate_waits_for_its_measurement():
    q = [QubitRef("q", i) for i in range(4)]
    circ = new_circuit([("q", 4, None)], level=Level.CLIFFORD_T)
    circ.append(h_gate(q[0])).append(h_gate(q[0])).append(measure_x(q[0]))
    # neither gate touches q[0]; both still wait for bit 0, written in layer 3
    circ.append(cc_x(0, q[1])).append(cc_z(0, q[2], q[3]))
    assert schedule(circ) == (4, 0)


def test_schedule_cc_gate_reads_the_pair_its_measurement_left():
    """The bit keeps the layer its measurement wrote, not the qubit's later
    state: the cc_x lands in layer 2, while one that read the measured
    qubit's live pair after the three H gates would land in layer 5."""
    q = [QubitRef("q", i) for i in range(2)]
    circ = new_circuit([("q", 2, None)], level=Level.CLIFFORD_T)
    circ.append(measure_x(q[0]))
    for _ in range(3):
        circ.append(h_gate(q[0]))
    circ.append(cc_x(0, q[1]))
    assert schedule(circ) == (4, 0)


def test_schedule_cc_gate_inherits_the_measurement_t_cone():
    q = [QubitRef("q", i) for i in range(2)]
    circ = new_circuit([("q", 2, None)], level=Level.CLIFFORD_T)
    circ.append(t_gate(q[0])).append(measure_x(q[0]))
    circ.append(cc_x(0, q[1])).append(t_gate(q[1]))
    assert schedule(circ) == (4, 2)


def test_schedule_orders_a_gate_after_the_cc_gate_sharing_its_qubit():
    q = [QubitRef("q", i) for i in range(3)]
    circ = new_circuit([("q", 3, None)], level=Level.CLIFFORD_T)
    circ.append(h_gate(q[0])).append(measure_x(q[0])).append(cc_x(0, q[1]))
    circ.append(cnot(q[1], q[2]))  # q[2] is fresh; q[1] was last set in layer 3
    assert schedule(circ) == (4, 0)


def test_schedule_of_the_empty_circuit_is_zero():
    for level in Level:
        assert schedule(new_circuit([], level=level)) == (0, 0)
        assert schedule(new_circuit([("q", 3, None)], level=level)) == (0, 0)


@pytest.mark.parametrize(
    "kind", [k for k in GateKind if k not in (GateKind.CC_Z, GateKind.CC_X)], ids=str
)
def test_schedule_of_one_gate(kind):
    """One gate on fresh qubits is one layer deep; only T and T-dagger start
    a T cone.  Both depths are read off the final qubit states."""
    for level in Level if kind.level is None else (kind.level,):
        circ = new_circuit([("q", 3, [AncillaInit.ZERO] * 3)], level=level)
        circ.append(Gate(kind, tuple(QubitRef("q", i) for i in range(kind.arity))))
        assert schedule(circ) == ((1, 1) if kind in T_KINDS else (1, 0))


def _reference_schedule(circ):
    """The ``max()``-based scheduler that :func:`schedule` replaced, verbatim."""
    qubit_layer: dict = {}
    cbit_layer: dict[int, int] = {}
    t_cone: dict = {}
    t_cbit: dict[int, int] = {}
    total = 0
    t_depth = 0
    for gate in circ.gates:
        layer = 0
        cone = 0
        for q in gate.qubits:
            layer = max(layer, qubit_layer.get(q, 0))
            cone = max(cone, t_cone.get(q, 0))
        if gate.kind in (GateKind.CC_Z, GateKind.CC_X):
            layer = max(layer, cbit_layer.get(gate.cbit, 0))
            cone = max(cone, t_cbit.get(gate.cbit, 0))
        layer += 1
        if gate.kind in T_KINDS:
            cone += 1
        for q in gate.qubits:
            qubit_layer[q] = layer
            t_cone[q] = cone
        if gate.kind is GateKind.MEASURE_X:
            cbit_layer[gate.cbit] = layer
            t_cbit[gate.cbit] = cone
        if layer > total:
            total = layer
        if cone > t_depth:
            t_depth = cone
    return total, t_depth


def _reference_histogram(circ):
    hist: dict[str, int] = {}
    for gate in circ.gates:
        hist[gate.kind.value] = hist.get(gate.kind.value, 0) + 1
    return hist


@st.composite
def _random_circuits(draw):
    """Circuits of up to 8 qubits and 60 gates, built through ``Circuit.append``.
    Every qubit is an ancilla, so any qubit may be a temporary-AND target."""
    level = draw(st.sampled_from(Level))
    nq = draw(st.integers(1, 8))
    circ = new_circuit([("q", nq, [AncillaInit.ZERO] * nq)], level=level)
    qubits = list(circ.qubits())
    kinds = [k for k in GateKind if k.level in (None, level) and k.arity <= nq]
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(kinds))
        operands = draw(st.lists(st.sampled_from(qubits), min_size=kind.arity,
                                 max_size=kind.arity, unique=True))
        cbit = None
        if kind in (GateKind.CC_Z, GateKind.CC_X):
            if not circ.num_cbits:
                continue
            cbit = draw(st.integers(0, circ.num_cbits - 1))
        circ.append(Gate(kind, tuple(operands), cbit))
    return circ


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_random_circuits())
def test_schedule_matches_the_reference_on_random_circuits(circ):
    assert schedule(circ) == _reference_schedule(circ)


def test_count_matches_the_reference_on_all_designs():
    for design in Design:
        for n in [*range(1, 65), 256]:
            toffoli_level = build(design, n)
            for circ in (toffoli_level, lower(toffoli_level)):
                rep = count(circ)
                hist = _reference_histogram(circ)
                assert list(rep.gate_histogram.items()) == list(hist.items())
                assert (rep.total_depth, rep.t_depth or 0) == _reference_schedule(circ)
                assert rep.cnot_count == hist.get("cnot", 0)
                assert rep.measurement_count == hist.get("measure_x", 0)
                if circ.level is Level.CLIFFORD_T:
                    assert rep.t_count == hist.get("t", 0) + hist.get("tdg", 0)


@pytest.mark.parametrize("design", list(Design), ids=str)
def test_count_is_unchanged_by_a_reload(design):
    """The loaders intern their QubitRefs apart from ``lower``'s, so the walk
    keys qubits by value: a reloaded stream counts the same."""
    low = lower(build(design, 64))
    rep = count(low)
    for back in (from_json(to_json(low)), parse_qasm3(to_qasm3(low))):
        assert back.gates == low.gates
        reloaded = count(back)
        assert reloaded == rep
        assert list(reloaded.gate_histogram) == list(rep.gate_histogram)


_TOFFOLI_LEVEL_KINDS = (
    GateKind.TOFFOLI, GateKind.TEMP_AND, GateKind.UNCOMPUTE, GateKind.CNOT, GateKind.NOT
)


@st.composite
def _random_toffoli_level_circuits(draw):
    """Toffoli-level circuits of 3 to 5 ancillae and up to 40 gates;
    few qubits make a temporary AND on a measured target, which ``lower``
    resets by ``cc_x``, common."""
    nq = draw(st.integers(3, 5))
    circ = new_circuit([("q", nq, [AncillaInit.ZERO] * nq)])
    qubits = list(circ.qubits())
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(_TOFFOLI_LEVEL_KINDS))
        operands = draw(st.lists(st.sampled_from(qubits), min_size=kind.arity,
                                 max_size=kind.arity, unique=True))
        circ.append(Gate(kind, tuple(operands)))
    return circ


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_random_toffoli_level_circuits())
def test_schedule_matches_the_reference_on_lowered_streams(circ):
    """The streams ``lower`` emits: measure_x -> cc_z chains and the cc_x
    reset before a reused AND target."""
    low = lower(circ)
    assert schedule(low) == _reference_schedule(low)


def test_lowered_in_place_histogram_keeps_first_occurrence_order():
    hist = count(lower(build(Design.IN_FT_QCLA1, 4))).gate_histogram
    assert list(hist) == ["h", "t", "cnot", "tdg", "s", "measure_x", "cc_z", "not", "cc_x"]


def test_formula_spot_values():
    assert formula_tcount(Design.OUT_FT_QCLA1, 8, "table") == 92
    assert formula_tcount(Design.OUT_FT_QCLA2, 8, "table") == 125
    assert formula_tcount(Design.IN_FT_QCLA2, 8, "table") == 189
    assert formula_tcount(Design.IN_FT_QCLA1, 8, "table") == 100
    assert formula_tcount(Design.IN_FT_QCLA1, 8, "per_step") == 132
    assert formula_tcount(Design.OUT_FT_QCLA1, 1, "table") == 4
    assert formula_qubits(Design.OUT_FT_QCLA2, 8) == 29
    assert formula_qubits(Design.OUT_FT_QCLA1, 8) == 40


def test_formula_domain():
    with pytest.raises(ValueError):
        formula_tcount(Design.IN_FT_QCLA1, 1, "table")
    with pytest.raises(ValueError):
        formula_tcount(Design.OUT_FT_QCLA1, 8, "bogus")


def test_catalog_values():
    assert CATALOG["Thapliyal-out"].evaluate(8)[0] == 266
    assert CATALOG["Thapliyal-in"].evaluate(8)[0] == Fraction(378)
    cheng_t, _ = CATALOG["Cheng"].evaluate(8)
    assert cheng_t == Fraction(4060, 3)
    assert cheng_t.denominator != 1
    assert CATALOG["Takahashi08"].approximate
    with pytest.raises(KeyError):
        CATALOG["nonesuch"]


def test_savings_quoted_figures():
    assert savings(Design.OUT_FT_QCLA1, "Thapliyal-out").display == "54.29"
    assert savings(Design.OUT_FT_QCLA1, "Babu-out").display == "70.37"
    assert savings(Design.OUT_FT_QCLA2, "Lisa-out").display == "15.38"
    assert savings(Design.IN_FT_QCLA1, "Takahashi08").display == "89.80"
    assert savings(Design.IN_FT_QCLA2, "Thapliyal-in").display == "21.18"


def test_savings_cheng_sentinel():
    fig = savings(Design.IN_FT_QCLA1, "Cheng")
    assert fig.kind == fig.display == "asymptotic-dominance" and fig.percent is None


def test_savings_averages_have_no_superlinear_baseline():
    """savings_average sums every figure of its list: each one is a ratio."""
    for design in Design:
        for baseline in OUT_OF_PLACE_BASELINES + IN_PLACE_BASELINES:
            assert not CATALOG[baseline].t_form.superlinear
            assert savings(design, baseline).kind == "ratio"


def test_savings_averages():
    assert abs(savings_average(Design.OUT_FT_QCLA1) - Fraction("54.34")) <= Fraction(1, 100)
    assert abs(savings_average(Design.OUT_FT_QCLA2) - Fraction("37.21")) <= Fraction(1, 100)
    assert abs(savings_average(Design.IN_FT_QCLA1) - Fraction("72.11")) <= Fraction(1, 100)
    # the in-place qubit-optimized average does not match its published value
    computed = savings_average(Design.IN_FT_QCLA2)
    assert abs(computed - Fraction("35.87")) > Fraction(1, 2)
    assert round_half_up(computed) == "44.23"


def test_savings_asymptotic_consistency():
    """Leading-coefficient figures match cost ratios evaluated at n = 2^20."""
    n = 2**20
    for design, model in DESIGN_COSTS.items():
        baselines = (
            ["Takahashi08", "Takahashi10", "Mogensen1", "Draper-in", "Thapliyal-in"]
            if design.in_place
            else ["Babu-out", "Lisa-out", "Draper-out", "Thapliyal-out"]
        )
        for label in baselines:
            ratio = 100 * (1 - model.t_form.evaluate(n) / CATALOG[label].t_form.evaluate(n))
            assert abs(ratio - savings(design, label).percent) < Fraction(1, 100)


def test_round_half_up():
    assert round_half_up(Fraction(54285, 1000)) == "54.29"  # 54.285 rounds up
    assert round_half_up(Fraction(1, 3)) == "0.33"
    assert round_half_up(Fraction(-5, 4)) == "-1.25"


# Every row's domain as published: the forms with w(n-1) or log2(n-1) terms start at n = 2.
ROW_MIN_N = {
    "Out-FT-QCLA1": 1, "Out-FT-QCLA2": 1, "In-FT-QCLA1": 2, "In-FT-QCLA2": 2,
    "Draper-out": 1, "Trisetyarso-out": 1, "Thapliyal-out": 1, "Babu-out": 1, "Lisa-out": 1,
    "Draper-in": 2, "Trisetyarso-in": 2, "Thapliyal-in": 1, "Takahashi08": 1,
    "Takahashi10": 1, "Cheng": 1, "Mogensen1": 1, "Mogensen2": 1,
}


def test_row_domains_are_derived_from_their_forms():
    rows = [*DESIGN_COSTS.values(), *CATALOG.values()]
    assert {model.label: model.min_n for model in rows} == ROW_MIN_N
    for model in rows:
        assert model.min_n == max(model.t_form.min_n, model.qubit_form.min_n)
        assert model.t_form.min_n == (2 if model.t_form.w1 or model.t_form.log1 else 1)


@pytest.mark.parametrize("label", sorted(ROW_MIN_N))
def test_each_row_raises_its_own_domain_message(label):
    min_n = ROW_MIN_N[label]
    message = f"^{label} cost form needs n >= {min_n}$"
    design = next((d for d in DESIGN_COSTS if d.value == label), None)
    calls = (
        [CATALOG[label].evaluate]
        if design is None
        else [
            lambda n: formula_tcount(design, n, "table"),
            lambda n: formula_tcount(design, n, "per_step"),
            lambda n: formula_qubits(design, n),
            DESIGN_COSTS[design].evaluate,
        ]
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call(min_n - 1)
        call(min_n)
