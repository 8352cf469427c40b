"""Self-contained verification suite and known-discrepancy ledger.

``run_validation`` re-derives every published claim this package reproduces:
exact T-count conformance of built circuits against the closed forms, qubit
conformance within a per-design constant, one certificate for the gadgets
and the lowered adders at n = 2 and 3 (:func:`qcla.statevec._certify`, every
branch of every input against the executor of :mod:`qcla.revsim`),
functional correctness of the emitted Clifford+T stream (translation
validation: :func:`qcla.lowering.lift` must invert ``lower``, and the lifted
circuit must pass the batch check of
:mod:`qcla.revsim` against the classical oracle, on every input at n <= 6
and on random pairs at n = 64 and 1024), logarithmic depth growth, and
export round-trips.  Six discrepancies in the published cost data are
reproduced deliberately; they are reported in the ledger and do not fail
verification.  The cost rule (:func:`qcla.resources.judge_costs`) and the
paper's published figures are read from :mod:`qcla.resources`.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

from .builders import Design, RoundKind, build, round_indices
from .jsonio import from_json, to_json
from .ir import T_KINDS, CircuitError, GateKind
from .lowering import GADGETS, lift, lower
from .qasm import parse_qasm3, to_qasm3
from .resources import (
    COST_CHECKS,
    DESIGN_COSTS,
    QUOTED_AVERAGES,
    QUOTED_SAVINGS,
    UNREPRODUCED_AVERAGE,
    CostRow,
    count,
    depth_bound_fit,
    floor_log2,
    formula_qubits,
    formula_tcount,
    judge_costs,
    round_half_up,
    savings,
    savings_average,
)
from .revsim import EXHAUSTIVE_MAX_N, _check_batch, random_pairs
from .statevec import _certify, _executor_cases, certified, gadget_unitary_check


@dataclass(frozen=True)
class Discrepancy:
    """One reproduced inconsistency in the published cost data."""

    id: str
    summary: str
    values: dict


def known_discrepancies() -> list[Discrepancy]:
    in1 = Design.IN_FT_QCLA1
    table8 = formula_tcount(in1, 8, "table")
    step8 = formula_tcount(in1, 8, "per_step")
    computed_avg = round_half_up(savings_average(Design.IN_FT_QCLA2))
    in1_avg = savings_average(in1)
    out1_qubits8 = formula_qubits(Design.OUT_FT_QCLA1, 8)
    and_gadget = GADGETS[GateKind.TEMP_AND]
    and_body = and_gadget.kinds[and_gadget.prep :]
    return [
        Discrepancy(
            "in1-closed-form-vs-stage-sum",
            "In-FT-QCLA1's published T-count closed form disagrees with the sum of its "
            "published per-stage costs by 8n - 4*floor(log2 n) - 4*floor(log2(n-1)) - 12; "
            "built circuits match the stage sum.",
            {"closed_form_at_n8": table8, "stage_sum_at_n8": step8},
        ),
        Discrepancy(
            "out-of-place-qubit-off-by-one",
            "The out-of-place prose register sizing totals one more qubit than the "
            "published qubit closed form; on-demand allocation matches the closed form.",
            {"register_sum_at_n8": 41, "closed_form_at_n8": out1_qubits8},
        ),
        Discrepancy(
            "reverse-span-loop-bounds",
            "The printed loop bounds for the reverse propagate-span stages are mutually "
            "inconsistent (recompute printed at width n, erase at width n-1); the "
            "published per-stage gate counts fix both at width n-1, which is what the "
            "builders emit (the literal width-n bounds would leave spans unerased).",
            {
                # the printed width-n recompute bound is the forward span set;
                # the builders undo the network at width n - 1
                "literal_recompute_count_at_n8": len(round_indices(RoundKind.P, 8)),
                "stage_count_at_n8": len(round_indices(RoundKind.P, 7)),
            },
        ),
        Discrepancy(
            "in2-average-savings-unreproduced",
            "In-FT-QCLA2's published average T-gate savings is not reproduced by "
            "averaging the per-baseline figures; the computed average is reported.",
            {"published": UNREPRODUCED_AVERAGE[1], "computed": computed_avg},
        ),
        Discrepancy(
            "in1-average-savings-rounding",
            "In-FT-QCLA1's published average T-gate savings is 0.0055 below the exact "
            "average 72.1155..., which rounds half-up to 72.12; the +-0.01 savings check "
            "passes it.  The paper does not simply truncate: Out-FT-QCLA1's 54.3378... "
            "is published as 54.34.",
            {"published": QUOTED_AVERAGES[in1.value], "exact": str(in1_avg),
             "half_up": round_half_up(in1_avg)},
        ),
        Discrepancy(
            "and-gadget-t-count-accounting",
            "The 4-T cost of the temporary-AND gadget counts the magic-state "
            "preparation T gate; the gadget body shows 3 explicit T-type gates. "
            "Lowering emits the preparation inline so measured T-counts match.",
            {"explicit_body_t_gates": sum(k in T_KINDS for k in and_body),
             "counted_t_gates": and_gadget.t_cost},
        ),
    ]


def git_revision() -> str | None:
    """The commit the package runs from when it runs from a git checkout
    (``src/qcla`` inside the work tree), else None.  In a linked worktree or
    a submodule ``.git`` is a file naming the git directory (``gitdir:``);
    ``HEAD`` is read there and branch refs under its ``commondir``."""
    dot_git = Path(__file__).resolve().parents[2] / ".git"
    try:
        git = dot_git
        if dot_git.is_file():
            pointer = dot_git.read_text().strip()
            if not pointer.startswith("gitdir: "):
                return None
            git = dot_git.parent / pointer[8:]
        common = git / (git / "commondir").read_text().strip() if (git / "commondir").is_file() else git
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (common / ref).is_file():
            return (common / ref).read_text().strip()
        for line in (common / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    """What produced a report.  numpy is reported only when something else
    already imported it; qcla itself never does."""
    from . import __version__

    numpy = sys.modules.get("numpy")
    return {
        "qcla": __version__,
        "python": platform.python_version(),
        "git": git_revision(),
        "numpy": getattr(numpy, "__version__", None),
    }


@dataclass
class ValidationReport:
    rows: list[CostRow] = field(default_factory=list)
    savings_table: list[dict] = field(default_factory=list)
    discrepancies: list[Discrepancy] = field(default_factory=list)
    # (name, passed, detail, seconds since the previous check was recorded)
    checks: list[tuple[str, bool, str, float]] = field(default_factory=list)
    _clock: float = field(default_factory=time.perf_counter, repr=False)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _, _ in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        now = time.perf_counter()
        self.checks.append((name, bool(ok), detail, now - self._clock))
        self._clock = now

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": n, "passed": ok, "detail": d, "seconds": round(s, 3)}
                for n, ok, d, s in self.checks
            ],
            "cost_rows": [vars(r) for r in self.rows],
            "savings": self.savings_table,
            "discrepancies": [
                {"id": d.id, "summary": d.summary, "values": d.values}
                for d in self.discrepancies
            ],
            "provenance": provenance(),
        }


def _check_costs(report: ValidationReport, n_max: int) -> None:
    fails = ("",) * len(COST_CHECKS)  # each check's last failure, "" while it passes
    for design in Design:
        for n in range(DESIGN_COSTS[design].min_n, n_max + 1):
            _, row, judged = judge_costs(design, n)
            if n in (8, 16, 32, 64) or n <= 4:
                report.rows.append(row)
            fails = tuple(new or old for new, old in zip(judged, fails))
    for name, fail in zip(COST_CHECKS, fails):
        report.check(name, not fail, fail)


def _check_gadgets(report: ValidationReport) -> None:
    checks = [gadget_unitary_check(row.name) for row in GADGETS.values()]
    worst = max(chk.max_deviation for chk in checks)
    failed = "".join(f"; {chk.gadget} fails" for chk in checks if not chk.passed)
    report.check("gadget unitary certification", not failed, f"max deviation {worst:.2e}{failed}")


def _check_statevector(report: ValidationReport) -> None:
    """Certify ``lower(build(d, n))`` against ``build(d, n)`` on every input at n = 2, 3."""
    fail = ""
    for design, n in product(Design, (2, 3)):
        circ = build(design, n)
        pos = circ.qubit_positions()  # lower keeps the qubit set
        starts = [circ.basis_input({"A": a, "B": b}) for a, b in product(range(2**n), repeat=2)]
        cases = _executor_cases(circ, starts, pos)
        worst = _certify(lower(circ).gates, cases, pos)
        if not certified(worst) or len(cases) < 4**n:
            fail = f"{design.value} n={n}: max deviation {worst:.2e} on {len(cases)} of {4**n} inputs"
    report.check("lowered adders certified on every branch of every input (n = 2, 3)", not fail, fail)


def _check_stream(report: ValidationReport, widths: tuple[int, ...] = (64,)) -> None:
    """Translation validation of the emitted stream at each width: ``lift``
    must invert the lowered adder, and the lifted Toffoli-level circuit must
    pass the batch check on every input up to the exhaustive cap
    (:data:`qcla.revsim.EXHAUSTIVE_MAX_N`) and, above it, on the 256 random
    pairs :func:`qcla.revsim.random_check` draws at seed 42, so no circuit's
    pairs depend on the others checked."""
    pairs, cap = 256, EXHAUSTIVE_MAX_N
    fail = ""
    for n, design in product(widths, Design):
        inputs = range(4**n) if n <= cap else random_pairs(n, pairs)
        try:
            lifted = lift(lower(build(design, n)))
        except CircuitError as exc:
            fail = f"{design.value} n={n}: {exc}"
            continue
        rep = _check_batch(lifted, design.value, inputs)
        if not rep.passed:
            fail = rep.summary()
    small, large = [n for n in widths if n <= cap], [n for n in widths if n > cap]
    parts = [f"every input at n <= {max(small)}"] if small else []
    parts += [f"{pairs} random pairs at n = {', '.join(map(str, large))}"] if large else []
    report.check(f"emitted stream lifts to a correct adder ({'; '.join(parts)})", not fail, fail)


def _check_depth(report: ValidationReport, top: int) -> None:
    fail = ""
    sizes = [4 << i for i in range((top // 4).bit_length())]  # 4, 8, ..., at most top
    for design in Design:
        toffoli_depths, t_depths = {}, {}
        for n in sizes:
            circ = build(design, n)
            toffoli_depths[n] = count(circ).total_depth
            t_depths[n] = count(lower(circ)).t_depth
        for label, depths in (("logical depth", toffoli_depths), ("t-depth", t_depths)):
            alpha, beta = depth_bound_fit(depths)
            prev = 0
            for n in sizes:
                if depths[n] < prev:
                    fail = f"{design.value} {label} decreases at n={n}"
                prev = depths[n]
                if depths[n] > alpha * floor_log2(n) + beta:
                    fail = f"{design.value} {label} at n={n}: {depths[n]} > {alpha}*log+{beta}"
    report.check(f"logarithmic depth growth up to n={sizes[-1]}", not fail, fail)


def _check_savings(report: ValidationReport) -> None:
    # (design, what the figure is of, its exact value, the published figure)
    published = [(d, f"vs {b}", savings(Design(d), b).percent, q)
                 for d, row in QUOTED_SAVINGS.items() for b, q in row.items()]
    published += [(d, "average", savings_average(Design(d)), q) for d, q in QUOTED_AVERAGES.items()]
    fail = ""
    for label, of, exact, quoted in published:
        computed = round_half_up(exact)
        report.savings_table.append({"design": label, "baseline": of.removeprefix("vs "),
                                     "computed": computed, "published": quoted})
        if abs(exact - Fraction(quoted)) > Fraction(1, 100):
            fail = f"{label} {of}: computed {computed}, published {quoted}"
    # the unreproduced average is recorded, not asserted
    label, quoted = UNREPRODUCED_AVERAGE
    report.savings_table.append({"design": label, "baseline": "average",
                                 "computed": round_half_up(savings_average(Design(label))),
                                 "published": quoted + " (unreproduced)"})
    report.check("published savings percentages and averages (+-0.01)", not fail, fail)

    dominance_ok = all(
        savings(d, "Cheng").kind == "asymptotic-dominance"
        for d in Design if d.in_place
    )
    report.check("superlinear baseline reported as asymptotic dominance", dominance_ok)


def _check_roundtrip(report: ValidationReport, widths: tuple[int, ...]) -> None:
    fail = ""
    for design in Design:
        for n in widths:
            where = f"{design.value} n={n}"
            tcirc = build(design, n)
            circ = lower(tcirc)
            again = lower(build(design, n))  # an independent rebuild, for determinism
            text = to_qasm3(circ)
            if text != to_qasm3(again):
                fail = f"{where}: QASM bytes unstable"
            back = parse_qasm3(text)
            same_regs = [
                (r.name, r.size, r.inits) for r in back.registers.values()
            ] == [(r.name, r.size, r.inits) for r in circ.registers.values()]
            if not (same_regs and back.gates == circ.gates):
                fail = f"{where}: QASM round-trip mismatch"
            js = to_json(circ)
            if js != to_json(again):
                fail = f"{where}: JSON bytes unstable"
            if json.dumps(json.loads(js), indent=2) + "\n" != js:
                fail = f"{where}: JSON bytes not json.dumps(indent=2)'s"
            if from_json(js).structural_key() != circ.structural_key():
                fail = f"{where}: JSON round-trip mismatch"
            if from_json(to_json(tcirc)).structural_key() != tcirc.structural_key():
                fail = f"{where}: Toffoli JSON round-trip mismatch"
    report.check("export determinism and round-trips (QASM3, JSON)", not fail, fail)


def run_validation(full: bool = False) -> ValidationReport:
    """Run the verification suite; ``full`` uses the complete acceptance bounds."""
    report = ValidationReport()
    _check_costs(report, n_max=64 if full else 16)
    _check_gadgets(report)
    _check_statevector(report)
    _check_stream(report, widths=(1, 2, 3, 4, 5, 6, 64, 1024) if full else (1, 2, 3, 4, 64))
    _check_depth(report, top=1024 if full else 128)
    _check_savings(report)
    _check_roundtrip(report, widths=(1, 2, 4) if full else (1, 2))
    report.discrepancies = known_discrepancies()
    return report
