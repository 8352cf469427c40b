"""Verification suite: each check reports its own failure; report provenance."""

import hashlib
import itertools
import json
import math
import platform
import re
import sys
import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import replaced

import qcla
from qcla import resources, revsim, statevec, validate
from qcla.builders import Design, build
from qcla.ir import Gate, GateKind, Level, QubitRef, not_, t, tdg
from qcla.jsonio import from_json, to_json
from qcla.lowering import GADGETS, _gadget_row, lower
from qcla.measure import count
from qcla.qasm import parse_qasm3, to_qasm3
from qcla.resources import CostExpr, formula_tcount, round_half_up, savings_average


def _checks(report):
    return {name.split(" (")[0]: (ok, detail) for name, ok, detail, _ in report.checks}


def test_cost_checks_carry_their_own_detail(monkeypatch):
    """A wrong qubit delta fails only the qubit check, with that check's detail;
    the passing checks carry an empty detail."""
    row = resources.DESIGN_COSTS[Design.IN_FT_QCLA2]
    monkeypatch.setitem(resources.DESIGN_COSTS, Design.IN_FT_QCLA2, replace(row, qubit_offset=0))
    report = validate.ValidationReport()
    validate._check_costs(report, n_max=4)
    checks = {name.split(" (")[0]: (ok, detail) for name, ok, detail, _ in report.checks}
    assert checks["t-count conformance"] == (True, "")
    assert checks["closed form == stage sum"] == (True, "")
    assert checks["qubit conformance"] == (False, "In-FT-QCLA2 n=4: qubit delta -1")


def test_report_provenance(monkeypatch):
    """The report ends with a provenance block; numpy is reported only when
    something else imported it."""
    monkeypatch.delitem(sys.modules, "numpy", raising=False)
    report = validate.ValidationReport().to_dict()
    assert list(report) == ["passed", "checks", "cost_rows", "savings", "discrepancies", "provenance"]
    prov = report["provenance"]
    assert prov == {
        "qcla": qcla.__version__,
        "python": platform.python_version(),
        "git": validate.git_revision(),
        "numpy": None,
    }
    assert prov["git"] is None or re.fullmatch("[0-9a-f]{40}", prov["git"])
    monkeypatch.setitem(sys.modules, "numpy", types.SimpleNamespace(__version__="9.9"))
    assert validate.provenance()["numpy"] == "9.9"


@pytest.mark.parametrize(
    "files, revision",
    [
        ({}, None),
        ({"HEAD": "ref: refs/heads/main\n", "refs/heads/main": "a" * 40 + "\n"}, "a" * 40),
        ({"HEAD": "ref: refs/heads/main\n", "packed-refs": f"# pack\n{'b' * 40} refs/heads/main\n"}, "b" * 40),
        ({"HEAD": "c" * 40 + "\n"}, "c" * 40),
        ({"HEAD": "ref: refs/heads/gone\n"}, None),
    ],
)
def test_git_revision_reads_the_checkout(tmp_path, monkeypatch, files, revision):
    for name, text in files.items():
        path = tmp_path / ".git" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    monkeypatch.setattr(validate, "__file__", str(tmp_path / "src" / "qcla" / "validate.py"))
    assert validate.git_revision() == revision


WORKTREE = ".git/worktrees/wt/"


@pytest.mark.parametrize(
    "pointer, files, revision",
    [
        # a linked worktree: HEAD in its own git directory, branch refs in the common one
        ("gitdir: {main}/.git/worktrees/wt\n",
         {WORKTREE + "HEAD": "ref: refs/heads/topic\n", WORKTREE + "commondir": "../..\n",
          ".git/refs/heads/topic": "d" * 40 + "\n"}, "d" * 40),
        # the branch packed in the common directory only
        ("gitdir: {main}/.git/worktrees/wt\n",
         {WORKTREE + "HEAD": "ref: refs/heads/topic\n", WORKTREE + "commondir": "../..\n",
          ".git/packed-refs": f"# pack\n{'0' * 40} refs/heads/main\n{'e' * 40} refs/heads/topic\n"},
         "e" * 40),
        # a detached worktree
        ("gitdir: {main}/.git/worktrees/wt\n",
         {WORKTREE + "HEAD": "1" * 40 + "\n", WORKTREE + "commondir": "../..\n"}, "1" * 40),
        # a submodule: a relative gitdir with its own refs and no commondir
        ("gitdir: ../main/.git/modules/sub\n",
         {".git/modules/sub/HEAD": "ref: refs/heads/main\n",
          ".git/modules/sub/refs/heads/main": "f" * 40 + "\n"}, "f" * 40),
        ("gitdir: {main}/.git/worktrees/gone\n", {}, None),
        ("not a pointer\n", {}, None),
    ],
    ids=["worktree", "worktree-packed", "worktree-detached", "submodule", "missing-gitdir", "not-a-pointer"],
)
def test_git_revision_follows_a_gitdir_file(tmp_path, monkeypatch, pointer, files, revision):
    """In a worktree or a submodule ``.git`` is a file naming the git directory."""
    main, checkout = tmp_path / "main", tmp_path / "checkout"
    for name, text in files.items():
        path = main / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    checkout.mkdir()
    (checkout / ".git").write_text(pointer.format(main=main))
    monkeypatch.setattr(validate, "__file__", str(checkout / "src" / "qcla" / "validate.py"))
    assert validate.git_revision() == revision


def test_qubit_deltas_match_the_golden_file():
    path = Path(__file__).resolve().parent.parent / "golden" / "qubit_deltas.json"
    golden = json.loads(path.read_text())
    assert {row.label: row.qubit_offset for row in resources.DESIGN_COSTS.values()} == golden


def test_roundtrip_check_requires_json_dumps_bytes(monkeypatch):
    """Stable JSON that loads back but is not json.dumps(indent=2)'s fails the check."""
    monkeypatch.setattr(validate, "to_json", lambda circ: json.dumps(json.loads(to_json(circ))) + "\n")
    report = validate.ValidationReport()
    validate._check_roundtrip(report, widths=(1,))
    [(name, ok, detail, _)] = report.checks
    assert not ok and detail.endswith("JSON bytes not json.dumps(indent=2)'s")


def test_t_count_check_reports_a_measured_mismatch(monkeypatch):
    """One extra T gate in every count fails only the T-count check."""
    def one_more_t(circ):
        rep = count(circ)
        return replaced(rep, t_count=rep.t_count + 1)

    monkeypatch.setattr(resources, "count", one_more_t)
    report = validate.ValidationReport()
    validate._check_costs(report, n_max=4)
    stage_sum = formula_tcount(Design.IN_FT_QCLA2, 4, "per_step")
    assert [ok for _, ok, _, _ in report.checks] == [False, True, True, True]
    assert report.checks[0][2] == (
        f"In-FT-QCLA2 n=4: measured {stage_sum + 1} != stage sum {stage_sum}"
    )


def test_closed_form_check_reports_a_closed_form_off_the_stage_sum(monkeypatch):
    def table_off_by_one(design, n, kind):
        off = kind == "table" and design is Design.OUT_FT_QCLA2
        return formula_tcount(design, n, kind) + off

    monkeypatch.setattr(resources, "formula_tcount", table_off_by_one)
    report = validate.ValidationReport()
    validate._check_costs(report, n_max=4)
    stage_sum = formula_tcount(Design.OUT_FT_QCLA2, 4, "per_step")
    assert [ok for _, ok, _, _ in report.checks] == [True, False, True, True]
    assert report.checks[1][2] == (
        f"Out-FT-QCLA2 n=4: stage sum {stage_sum} != closed form {stage_sum + 1}"
    )


def test_in1_closed_form_off_its_known_delta_fails_only_the_delta_identity(monkeypatch):
    def in1_table_off_by_one(design, n, kind):
        return formula_tcount(design, n, kind) + (kind == "table" and design is Design.IN_FT_QCLA1)

    monkeypatch.setattr(resources, "formula_tcount", in1_table_off_by_one)
    report = validate.ValidationReport()
    validate._check_costs(report, n_max=4)
    assert [ok for _, ok, _, _ in report.checks] == [True, True, True, False]


def test_in1_t_offset_shifted_by_one_fails_only_the_delta_identity(monkeypatch):
    """The delta identity reads In-FT-QCLA1's declared offset from its row."""
    row = resources.DESIGN_COSTS[Design.IN_FT_QCLA1]
    shifted = replace(row.t_offset, const=row.t_offset.const + 1)
    monkeypatch.setitem(resources.DESIGN_COSTS, Design.IN_FT_QCLA1, replace(row, t_offset=shifted))
    report = validate.ValidationReport()
    validate._check_costs(report, n_max=8)
    assert [ok for _, ok, _, _ in report.checks] == [True, True, True, False]
    assert report.checks[3][2] == "In-FT-QCLA1 n=8: stage sum - closed form 32 != delta 33"


@pytest.mark.parametrize("offset, table_off, verdicts, detail", [
    (1, 0, [True, True, True, False], "Out-FT-QCLA2 n=4: stage sum - closed form 0 != delta 1"),
    (-1, 1, [True, True, True, True], ""),
], ids=["off-its-offset", "on-its-offset"])
def test_a_declared_t_offset_moves_a_row_to_the_delta_identity(
        monkeypatch, offset, table_off, verdicts, detail):
    """Out-FT-QCLA2 given a T offset is judged like In-FT-QCLA1: by the delta
    identity, which its closed form passes when off its stage sum by the
    offset, and not by the closed-form check."""
    def table_off_by(design, n, kind):
        off = table_off if kind == "table" and design is Design.OUT_FT_QCLA2 else 0
        return formula_tcount(design, n, kind) + off

    row = resources.DESIGN_COSTS[Design.OUT_FT_QCLA2]
    declared = replace(row, t_offset=CostExpr(const=Fraction(offset)))
    monkeypatch.setitem(resources.DESIGN_COSTS, Design.OUT_FT_QCLA2, declared)
    monkeypatch.setattr(resources, "formula_tcount", table_off_by)
    report = validate.ValidationReport()
    validate._check_costs(report, n_max=4)
    assert [ok for _, ok, _, _ in report.checks] == verdicts
    assert report.checks[3][2] == detail


def test_the_quick_suite_runs_these_checks_in_this_order():
    report = validate.run_validation(full=False)
    assert [name for name, *_ in report.checks] == [
        "t-count conformance (measured == stage sum)",
        "closed form == stage sum (except In-FT-QCLA1)",
        "qubit conformance (constant per-design delta, |delta| <= 1)",
        "In-FT-QCLA1 closed-form/stage-sum delta identity",
        "gadget unitary certification",
        "lowered adders certified on every branch of every input (n = 2, 3)",
        "emitted stream lifts to a correct adder (every input at n <= 4; 256 random pairs at n = 64)",
        "logarithmic depth growth up to n=128",
        "published savings percentages and averages (+-0.01)",
        "superlinear baseline reported as asymptotic dominance",
        "export determinism and round-trips (QASM3, JSON)",
    ]
    assert report.passed


def test_statevector_check_reports_a_wrong_sum(monkeypatch):
    """A NOT on s0 after the lowered adder flips bit 0 of every sum it reads."""

    def flipped(circ):
        out = lower(circ)
        return out.append(not_(out.labeled("s")[0]))

    monkeypatch.setattr(validate, "lower", flipped)
    report = validate.ValidationReport()
    validate._check_statevector(report)
    [(name, ok, detail, _)] = report.checks
    assert not ok and detail == "In-FT-QCLA2 n=3: max deviation 1.00e+00 on 64 of 64 inputs", detail


def test_verification_fails_a_lower_that_drops_its_resets(lower_without_resets):
    """Without its ``cc_x`` resets the stream still reads every sum right and
    lifts, but a reused AND target is not fresh: only the certificate fails."""
    report = validate.run_validation(full=False)
    assert [(name, detail) for name, ok, detail, _ in report.checks if not ok] == [
        ("lowered adders certified on every branch of every input (n = 2, 3)",
         "In-FT-QCLA1 n=3: max deviation 2.00e+00 on 64 of 64 inputs"),
    ]


def test_statevector_check_fails_an_adder_that_breaks_an_uncompute(monkeypatch):
    """An uncompute given a wrong control breaks its contract on some inputs.
    The stream still matches on the other inputs; the missing cases fail it."""

    def wrong_control(design, n):
        circ = build(design, n)
        at = [i for i, g in enumerate(circ.gates) if g.kind is GateKind.UNCOMPUTE]
        if at:
            c1, c2, target = circ.gates[at[0]].qubits
            other = next(q for q in circ.qubits() if q not in (c1, c2, target))
            circ.gates[at[0]] = Gate(GateKind.UNCOMPUTE, (c1, other, target))
        return circ

    monkeypatch.setattr(validate, "build", wrong_control)
    report = validate.ValidationReport()
    validate._check_statevector(report)
    [(name, ok, detail, _)] = report.checks
    match = re.fullmatch(r"In-FT-QCLA2 n=3: max deviation (\S+) on 48 of 64 inputs", detail)
    assert not ok and match and float(match[1]) < 1e-10, detail


@pytest.mark.parametrize("worst, passed", [
    (statevec.CERTIFY_TOL, True),
    (math.nextafter(statevec.CERTIFY_TOL, 1), False),
    (math.nan, False),
])
def test_both_certificate_checks_give_one_verdict_at_the_tolerance(monkeypatch, worst, passed):
    """The gadget and lowered-adder checks judge a worst deviation the same way."""
    monkeypatch.setattr(statevec, "_certify", lambda *args: worst)
    monkeypatch.setattr(validate, "_certify", lambda *args: worst)
    report = validate.ValidationReport()
    validate._check_gadgets(report)
    validate._check_statevector(report)
    assert [ok for _, ok, _, _ in report.checks] == [passed, passed]


def test_stream_check_reports_a_wrong_sum(monkeypatch):
    """A NOT on s0 after the lowered adder lifts as a NOT, and the batch check
    of the lifted circuit then reads bit 0 of every sum wrong."""

    def flipped(circ):
        out = lower(circ)
        return out.append(not_(out.labeled("s")[0]))

    monkeypatch.setattr(validate, "lower", flipped)
    report = validate.ValidationReport()
    validate._check_stream(report)
    [(name, ok, detail, _)] = report.checks
    assert not ok and detail == "In-FT-QCLA2 n=64: 0/256 FAIL", detail


def test_stream_check_reads_every_input_at_a_small_width(monkeypatch):
    """At n <= 6 the lifted circuit is batch-checked on every input, so the
    NOT on s0 fails all 16 inputs at n = 2, the last batch, by its summary."""

    def flipped(circ):
        out = lower(circ)
        return out.append(not_(out.labeled("s")[0]))

    monkeypatch.setattr(validate, "lower", flipped)
    report = validate.ValidationReport()
    validate._check_stream(report, widths=(1, 2))
    [(name, ok, detail, _)] = report.checks
    assert not ok and detail == "In-FT-QCLA2 n=2: 0/16 FAIL", detail
    assert name == "emitted stream lifts to a correct adder (every input at n <= 2)"


@pytest.mark.parametrize("widths", [(64,), (7, 64)])
def test_stream_check_draws_the_pairs_random_check_draws(monkeypatch, widths):
    """At n = 64 every design is batch-checked on the pairs that
    ``random_check(design, 64, 256, 42)`` draws, whatever widths precede it."""
    drawn = []

    def record(circ, name, inputs):
        drawn.append((name, circ.registers["A"].size, list(inputs)))
        return revsim.CheckReport(name, 0, 0, 0, [], [], [])

    monkeypatch.setattr(revsim, "_check_batch", record)
    for design in Design:
        revsim.random_check(design, 64, 256, 42)
    expected, drawn[:] = drawn[:], []
    monkeypatch.setattr(validate, "_check_batch", record)
    validate._check_stream(validate.ValidationReport(), widths)
    assert [entry for entry in drawn if entry[1] == 64] == expected


def test_stream_check_reports_a_stream_lift_refuses(monkeypatch):
    """A deleted T leaves a window that starts no gadget."""

    def deleted(circ):
        out = lower(circ)
        del out.gates[next(i for i, g in enumerate(out.gates) if g.kind is GateKind.T)]
        return out

    monkeypatch.setattr(validate, "lower", deleted)
    report = validate.ValidationReport()
    validate._check_stream(report)
    [(name, ok, detail, _)] = report.checks
    assert not ok and re.fullmatch(r"In-FT-QCLA2 n=64: gate \d+ \(h\) starts no gadget", detail), detail


def test_gadget_check_reports_a_row_off_its_declared_t_cost(monkeypatch):
    """T then T-dagger appended to the Toffoli row's gate list change no
    amplitude, but its T count is then 9 against a declared 7."""
    row = GADGETS[GateKind.TOFFOLI]
    planted = _gadget_row(
        row.name, lambda *q: row.gadget(*q) + [t(q[0]), tdg(q[0])], row.t_cost, row.prep
    )
    monkeypatch.setitem(GADGETS, GateKind.TOFFOLI, planted)
    report = validate.ValidationReport()
    validate._check_gadgets(report)
    (ok, detail), = _checks(report).values()
    assert not ok and re.fullmatch(r"max deviation \d\.\d\de-1\d; toffoli fails", detail), detail


@pytest.mark.parametrize("fault, detail", [
    ("bound", r"In-FT-QCLA2 t-depth at n=16: \d+ > 0\*log\+0"),
    ("decrease", r"In-FT-QCLA2 logical depth decreases at n=16"),
])
def test_depth_check_reports_its_failure(monkeypatch, fault, detail):
    if fault == "bound":
        monkeypatch.setattr(validate, "depth_bound_fit", lambda depths: (0, 0))
    else:  # the Toffoli-level depth falls with n, along a line the fit still bounds
        def falling(circ):
            return replaced(count(circ), total_depth=99 - circ.registers["A"].size)

        monkeypatch.setattr(validate, "count", falling)
    report = validate.ValidationReport()
    validate._check_depth(report, top=16)
    [(name, ok, got, _)] = report.checks
    assert not ok and re.fullmatch(detail, got), got


@pytest.mark.parametrize("fault, detail", [
    ("figure", "Out-FT-QCLA1 vs Babu-out: computed 70.37, published 70.00"),
    ("average", "In-FT-QCLA1 average: computed 72.12, published 72.00"),
])
def test_savings_check_reports_a_published_figure_it_misses(monkeypatch, fault, detail):
    if fault == "figure":
        out1 = {**validate.QUOTED_SAVINGS["Out-FT-QCLA1"], "Babu-out": "70.00"}
        quoted = {**validate.QUOTED_SAVINGS, "Out-FT-QCLA1": out1}
        monkeypatch.setattr(validate, "QUOTED_SAVINGS", quoted)
    else:
        monkeypatch.setitem(validate.QUOTED_AVERAGES, "In-FT-QCLA1", "72.00")
    report = validate.ValidationReport()
    validate._check_savings(report)
    checks = _checks(report)
    assert checks["published savings percentages and averages"] == (False, detail)
    assert checks["superlinear baseline reported as asymptotic dominance"] == (True, "")


def test_cost_and_savings_judgements_are_pinned():
    """The savings table, the cost rows and every (name, passed, detail) of the
    cost and savings checks hash to the values these checks have always
    produced, so an edit to either check that changes a figure shows here."""
    report = validate.ValidationReport()
    validate._check_costs(report, n_max=16)
    validate._check_savings(report)
    judged = [
        report.savings_table,
        [vars(row) for row in report.rows],
        [[name, ok, detail] for name, ok, detail, _ in report.checks],
    ]
    digest = hashlib.sha256(json.dumps(judged, sort_keys=True).encode()).hexdigest()
    assert digest == "017176b9263de1b4b50709690b1b5823c0a2b135c8302990535bf2b532750af1"


def test_the_whole_discrepancy_ledger_is_pinned():
    """Every ledger entry in order, with its values: the reverse span bounds
    still read 4 (width n) and 2 (width n - 1) at n = 8."""
    assert [(d.id, d.values) for d in validate.known_discrepancies()] == [
        ("in1-closed-form-vs-stage-sum", {"closed_form_at_n8": 100, "stage_sum_at_n8": 132}),
        ("out-of-place-qubit-off-by-one", {"register_sum_at_n8": 41, "closed_form_at_n8": 40}),
        (
            "reverse-span-loop-bounds",
            {"literal_recompute_count_at_n8": 4, "stage_count_at_n8": 2},
        ),
        ("in2-average-savings-unreproduced", {"published": "35.87", "computed": "44.23"}),
        (
            "in1-average-savings-rounding",
            {"published": "72.11", "exact": "2152000/29841", "half_up": "72.12"},
        ),
        ("and-gadget-t-count-accounting", {"explicit_body_t_gates": 3, "counted_t_gates": 4}),
    ]


def test_in1_average_is_in_the_ledger_as_rounded_half_up_past_its_published_figure():
    [entry] = [d for d in validate.known_discrepancies() if d.id == "in1-average-savings-rounding"]
    assert entry.values == {"published": "72.11", "exact": "2152000/29841", "half_up": "72.12"}
    assert Fraction(entry.values["exact"]) == savings_average(Design.IN_FT_QCLA1)
    # the paper does not simply truncate: Out-FT-QCLA1's 54.3378... is published as 54.34
    out1 = savings_average(Design.OUT_FT_QCLA1)
    assert validate.QUOTED_AVERAGES["Out-FT-QCLA1"] == round_half_up(out1) == "54.34"
    assert out1 < Fraction("54.34")


def _unstable_qasm(monkeypatch):
    calls = itertools.count()
    monkeypatch.setattr(validate, "to_qasm3", lambda circ: to_qasm3(circ) + f"// {next(calls)}\n")


def _lossy_qasm(monkeypatch):
    def parse(text):
        back = parse_qasm3(text)
        back.gates.pop()
        return back

    monkeypatch.setattr(validate, "parse_qasm3", parse)


def _unstable_labels(monkeypatch):
    # every second build relabels A[0]: OpenQASM drops labels, qcla-ir/1 keeps them
    calls = itertools.count()

    def rebuild(design, n):
        circ = build(design, n)
        if next(calls) % 2:
            circ.labels[QubitRef("A", 0)] = "relabelled"
        return circ

    monkeypatch.setattr(validate, "build", rebuild)


def _lossy_json(level):
    def inject(monkeypatch):
        def load(text):
            back = from_json(text)
            if back.level is level:
                back.labels.clear()
            return back

        monkeypatch.setattr(validate, "from_json", load)

    return inject


@pytest.mark.parametrize("fault, detail", [
    (_unstable_qasm, "QASM bytes unstable"),
    (_lossy_qasm, "QASM round-trip mismatch"),
    (_unstable_labels, "JSON bytes unstable"),
    (_lossy_json(Level.CLIFFORD_T), "JSON round-trip mismatch"),
    (_lossy_json(Level.TOFFOLI), "Toffoli JSON round-trip mismatch"),
])
def test_roundtrip_check_reports_each_failure(monkeypatch, fault, detail):
    fault(monkeypatch)
    report = validate.ValidationReport()
    validate._check_roundtrip(report, widths=(1, 2))
    [(name, ok, got, _)] = report.checks
    assert (ok, got) == (False, f"In-FT-QCLA2 n=2: {detail}")
