"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and bound is pinned here.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import json

from qcla.builders import Design, build
from qcla.jsonio import from_json, to_json
from qcla.lowering import lower
from qcla.measure import count
from qcla.qasm import parse_qasm3, to_qasm3
from qcla.resources import (
    QUOTED_AVERAGES,
    QUOTED_SAVINGS,
    UNREPRODUCED_AVERAGE,
    depth_bound_fit,
    floor_log2,
    formula_qubits,
    formula_tcount,
    round_half_up,
    savings,
    savings_average,
)
from qcla.revsim import exhaustive_check
from qcla.statevec import AllBranches, gadget_unitary_check, simulate
from qcla.validate import run_validation

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_t_count_conformance():
    """Measured T-count equals the per-stage form exactly for n up to 64."""
    start = time.monotonic()
    ok = True
    for design in Design:
        lo = 2 if design.in_place else 1
        for n in range(lo, 65):
            measured = count(lower(build(design, n))).t_count
            ok &= measured == formula_tcount(design, n, "per_step")
            if design is not Design.IN_FT_QCLA1:
                ok &= measured == formula_tcount(design, n, "table")
    ok &= formula_tcount(Design.OUT_FT_QCLA1, 8, "table") == 92
    ok &= formula_tcount(Design.OUT_FT_QCLA2, 8, "table") == 125
    ok &= formula_tcount(Design.IN_FT_QCLA2, 8, "table") == 189
    elapsed = time.monotonic() - start
    ok &= elapsed < 10
    _report(f"1 t-count conformance ({elapsed:.1f}s)", ok)


def test_criterion_2_known_t_count_discrepancy():
    """In-FT-QCLA1's closed form and stage sum differ by the fixed delta."""
    in1 = Design.IN_FT_QCLA1
    ok = all(
        formula_tcount(in1, n, "per_step") - formula_tcount(in1, n, "table")
        == 8 * n - 4 * floor_log2(n) - 4 * floor_log2(n - 1) - 12
        for n in range(2, 65)
    )
    ok &= formula_tcount(in1, 8, "per_step") - formula_tcount(in1, 8, "table") == 32
    report = run_validation(full=False)
    ok &= report.passed  # the discrepancy must not fail verification
    ok &= any(d.id == "in1-closed-form-vs-stage-sum" for d in report.discrepancies)
    _report("2 closed-form/stage-sum discrepancy reproduced", ok)


def test_criterion_3_qubit_conformance():
    """Measured qubits within 1 of the closed form, constant signed delta."""
    golden = json.loads((GOLDEN / "qubit_deltas.json").read_text())
    ok = True
    for design in Design:
        lo = 2 if design.in_place else 1
        deltas = set()
        for n in range(lo, 65):
            deltas.add(count(build(design, n)).qubit_count - formula_qubits(design, n))
        ok &= len(deltas) == 1
        delta = deltas.pop()
        ok &= abs(delta) <= 1
        ok &= delta == golden[design.value]
    for design, want in (
        (Design.OUT_FT_QCLA1, 40),
        (Design.OUT_FT_QCLA2, 29),
        (Design.IN_FT_QCLA1, 40),
        (Design.IN_FT_QCLA2, 29),
    ):
        ok &= formula_qubits(design, 8) == want
    _report("3 qubit conformance", ok)


def test_criterion_4_functional_correctness():
    """All 2^(2n) pairs for n <= 6: sum, restoration, no erase assertions."""
    start = time.monotonic()
    ok = True
    for design in Design:
        for n in range(1, 7):
            report = exhaustive_check(design, n)
            ok &= report.passed
    elapsed = time.monotonic() - start
    ok &= elapsed < 60
    _report(f"4 functional correctness ({elapsed:.1f}s)", ok)


def test_criterion_5_gadget_certification():
    ok = True
    for gadget in ("toffoli", "and", "and_uncompute_pair"):
        chk = gadget_unitary_check(gadget)
        ok &= chk.passed  # statevec.CERTIFY_TOL is the one tolerance
    _report("5 gadget certification", ok)


def test_criterion_6_quantum_determinism():
    """AllBranches at n in {2, 3}: every branch reads the sum, probs sum to 1."""
    start = time.monotonic()
    rng = random.Random(42)
    ok = True
    for design in Design:
        for n in (2, 3):
            circ = lower(build(design, n))
            for _ in range(10):
                a, b = rng.randrange(2**n), rng.randrange(2**n)
                outs = simulate(circ, {"A": a, "B": b}, AllBranches())
                ok &= {o.labeled_int("s") for o in outs} == {a + b}
                ok &= abs(sum(o.probability for o in outs) - 1) <= 1e-9
    elapsed = time.monotonic() - start
    ok &= elapsed < 300
    _report(f"6 quantum determinism ({elapsed:.1f}s)", ok)


def test_criterion_7_savings_reproduction():
    ok = True
    for design_label, row in QUOTED_SAVINGS.items():
        design = next(d for d in Design if d.value == design_label)
        for baseline, quoted in row.items():
            ok &= abs(savings(design, baseline).percent - Fraction(quoted)) <= Fraction(1, 100)
    for design_label, quoted in QUOTED_AVERAGES.items():
        design = next(d for d in Design if d.value == design_label)
        ok &= abs(savings_average(design) - Fraction(quoted)) <= Fraction(1, 100)
    # the published In-FT-QCLA2 average is reported as unreproduced
    computed = savings_average(Design.IN_FT_QCLA2)
    ok &= round_half_up(computed) == "44.23"
    ok &= abs(computed - Fraction(UNREPRODUCED_AVERAGE[1])) > Fraction(1, 100)
    _report("7 savings reproduction", ok)


def test_criterion_8_depth_property():
    """Logical depth and T-depth grow within alpha*log2(n) + beta, fitted at 4, 8."""
    sizes = [4 << i for i in range(9)]  # 4 .. 1024
    ok = True
    for design in Design:
        logical, tdepth = {}, {}
        for n in sizes:
            circ = build(design, n)
            logical[n] = count(circ).total_depth
            tdepth[n] = count(lower(circ)).t_depth
        for depths in (logical, tdepth):
            alpha, beta = depth_bound_fit(depths)
            prev = 0
            for n in sizes:
                ok &= depths[n] >= prev
                prev = depths[n]
                ok &= depths[n] <= alpha * floor_log2(n) + beta
    _report("8 logarithmic depth property", ok)


def test_criterion_9_round_trip_determinism():
    ok = True
    for design in Design:
        for n in (1, 2, 4):
            circ = lower(build(design, n))
            text = to_qasm3(circ)
            ok &= text == to_qasm3(lower(build(design, n)))
            back = parse_qasm3(text)
            ok &= back.gates == circ.gates
            ok &= [(r.name, r.size, r.inits) for r in back.registers.values()] == [
                (r.name, r.size, r.inits) for r in circ.registers.values()
            ]
            js = to_json(circ)
            ok &= js == to_json(lower(build(design, n)))
            ok &= from_json(js).structural_key() == circ.structural_key()
            toff = build(design, n)
            ok &= from_json(to_json(toff)).structural_key() == toff.structural_key()
    _report("9 round-trip determinism", ok)
