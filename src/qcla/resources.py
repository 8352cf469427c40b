"""Closed-form cost models, the cost rule that judges a measured cost against
them, and the paper's savings table.  The measurement itself (``count``,
``schedule``, ``ResourceReport``) is :mod:`qcla.measure`'s, re-exported here.

Cost expressions are linear combinations over the basis {n, w(n), w(n-1),
floor(log2 n), floor(log2(n-1)), 1} plus optional quadratic/cubic terms for
one catalog entry; evaluation is exact (Fraction arithmetic, integer inputs).
Percent savings compare leading n-coefficients and render with two decimals,
rounding half up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .builders import Design, build, floor_log2
from .ir import GateKind
from .lowering import GADGETS, lower
from .measure import ResourceReport, count, schedule  # noqa: F401  (re-exported)


def hamming_weight(n: int) -> int:
    """Number of ones in the binary expansion of n."""
    if n < 0:
        raise ValueError("hamming_weight requires n >= 0")
    return n.bit_count()


# ---------------------------------------------------------------------------
# closed-form cost models

@dataclass(frozen=True)
class CostExpr:
    """Exact linear form over {n, w(n), log2(n), w(n-1), log2(n-1), 1, n^2, n^3}."""

    n: Fraction = Fraction(0)
    w: Fraction = Fraction(0)
    log: Fraction = Fraction(0)
    w1: Fraction = Fraction(0)
    log1: Fraction = Fraction(0)
    const: Fraction = Fraction(0)
    n2: Fraction = Fraction(0)
    n3: Fraction = Fraction(0)

    @property
    def min_n(self) -> int:
        """The smallest width the form is defined at: w(n-1) and log2(n-1)
        need n >= 2, every other term n >= 1."""
        return 2 if self.w1 or self.log1 else 1

    def evaluate(self, n: int) -> Fraction:
        """The form at width n; its row guards the domain (see :meth:`CostModel.evaluate`)."""
        value = (
            self.n * n
            + self.w * hamming_weight(n)
            + self.log * floor_log2(n)
            + self.const
            + self.n2 * n * n
            + self.n3 * n**3
        )
        if self.min_n == 2:
            value += self.w1 * hamming_weight(n - 1) + self.log1 * floor_log2(n - 1)
        return value

    @property
    def superlinear(self) -> bool:
        return bool(self.n2 or self.n3)


def _expr(n=0, w=0, log=0, w1=0, log1=0, const=0, n2=0, n3=0) -> CostExpr:
    return CostExpr(*(Fraction(v) for v in (n, w, log, w1, log1, const, n2, n3)))


@dataclass(frozen=True)
class CostModel:
    """One catalog row: T-count and qubit closed forms for a design, and the
    offsets of a generated design's stage sum and measured qubits from them."""

    label: str
    t_form: CostExpr
    qubit_form: CostExpr
    t_offset: CostExpr | None = None  # stage sum - T form, where the two disagree
    qubit_offset: int = 0  # measured - formula qubits (golden/qubit_deltas.json)
    approximate: bool = False  # published only as an approximation

    @property
    def min_n(self) -> int:
        return max(self.t_form.min_n, self.qubit_form.min_n)

    def evaluate(self, n: int) -> tuple[Fraction, Fraction]:
        """(T-count, qubits) at width n; below :attr:`min_n` raises ValueError."""
        if n < self.min_n:
            raise ValueError(f"{self.label} cost form needs n >= {self.min_n}")
        return self.t_form.evaluate(n), self.qubit_form.evaluate(n)


# T-count and qubit closed forms of the four generated designs, each row
# labelled with its design's label; the in-place rows add their t_offset and
# qubit_offset (see the discrepancy report and golden/qubit_deltas.json).
DESIGN_COSTS: dict[Design, CostModel] = {
    design: CostModel(design.value, *row)
    for design, *row in (
        (Design.OUT_FT_QCLA1, _expr(n=16, w=-8, log=-8, const=-4), _expr(n=6, w=-2, log=-2)),
        (
            Design.OUT_FT_QCLA2,
            _expr(n=22, w=-11, log=-11, const=-7),
            _expr(n=4, w=-1, log=-1, const=1),
        ),
        (
            Design.IN_FT_QCLA1,
            _expr(n=20, w=-8, w1=-8, log=-4, log1=-4, const=-8),
            _expr(n=6, w=-2, log=-2),
            _expr(n=8, log=-4, log1=-4, const=-12),
            -1,
        ),
        (
            Design.IN_FT_QCLA2,
            _expr(n=40, w=-11, log=-11, w1=-11, log1=-11, const=-32),
            _expr(n=4, w=-1, log=-1, const=1),
            None,
            -1,
        ),
    )
}

# Published prior-work cost catalog (closed forms only; constructions are out
# of scope), keyed by row label.  "-out" rows are out-of-place baselines; the
# rest are in-place.
CATALOG: dict[str, CostModel] = {
    model.label: model
    for model in (
        CostModel(
            "Draper-out", _expr(n=35, w=-21, log=-21, const=-7), _expr(n=4, w=-1, log=-1, const=1)
        ),
        CostModel(
            "Trisetyarso-out",
            _expr(n=35, w=-21, log=-21, const=-7),
            _expr(n=4, w=-1, log=-1, const=1),
        ),
        CostModel("Thapliyal-out", _expr(n=35, const=-14), _expr(n=4, const=1)),
        CostModel("Babu-out", _expr(n=54), _expr(n=12, const=1)),
        CostModel("Lisa-out", _expr(n=26), _expr(n=6, const=1)),
        CostModel(
            "Draper-in",
            _expr(n=70, w=-21, log=-21, w1=-21, log1=-21, const=-49),
            _expr(n=4, w=-1, log=-1, const=1),
        ),
        CostModel(
            "Trisetyarso-in",
            _expr(n=70, w=-21, log=-21, w1=-21, log1=-21, const=-49),
            _expr(n=4, w=-1, log=-1, const=1),
        ),
        CostModel("Thapliyal-in", _expr(n=Fraction(203, 4), const=-28), _expr(n=4, const=1)),
        CostModel("Takahashi08", _expr(n=196), _expr(n=5), approximate=True),
        CostModel("Takahashi10", _expr(n=49), _expr(n=5), approximate=True),
        CostModel(
            "Cheng",
            _expr(n3=Fraction(14, 6), n2=Fraction(21, 6), n=Fraction(-49, 6)),
            _expr(n=3, const=1),
        ),
        CostModel("Mogensen1", _expr(n=84, const=-56), _expr(n=3, const=-1), approximate=True),
        # The qubit form is printed without a floor on the log term; evaluated with
        # floor(log2 n).
        CostModel(
            "Mogensen2", _expr(n=84, const=-56), _expr(n=3, log=-1, const=-1), approximate=True
        ),
    )
}

# The paper's savings table: design label -> {baseline -> published T-gate
# savings percent}.  Each placement's baseline list, in the column order of
# ``qcla compare``, is read from its rows.
QUOTED_SAVINGS: dict[str, dict[str, str]] = {
    "Out-FT-QCLA1": {"Babu-out": "70.37", "Lisa-out": "38.46", "Draper-out": "54.29",
                     "Trisetyarso-out": "54.29", "Thapliyal-out": "54.29"},
    "Out-FT-QCLA2": {"Babu-out": "59.26", "Lisa-out": "15.38", "Draper-out": "37.14",
                     "Trisetyarso-out": "37.14", "Thapliyal-out": "37.14"},
    "In-FT-QCLA1": {"Takahashi08": "89.80", "Takahashi10": "59.18", "Mogensen1": "76.19",
                    "Mogensen2": "76.19", "Draper-in": "71.43", "Trisetyarso-in": "71.43",
                    "Thapliyal-in": "60.59"},
    "In-FT-QCLA2": {"Takahashi08": "79.59", "Takahashi10": "18.37", "Mogensen1": "52.38",
                    "Mogensen2": "52.38", "Draper-in": "42.86", "Trisetyarso-in": "42.86",
                    "Thapliyal-in": "21.18"},
}

# Published averages; In-FT-QCLA2's is not reproduced by any natural averaging
# of the per-baseline figures and is reported as such.
QUOTED_AVERAGES = {
    "Out-FT-QCLA1": "54.34",
    "Out-FT-QCLA2": "37.21",
    "In-FT-QCLA1": "72.11",
}
UNREPRODUCED_AVERAGE = ("In-FT-QCLA2", "35.87")

OUT_OF_PLACE_BASELINES = list(QUOTED_SAVINGS[Design.OUT_FT_QCLA1.value])
IN_PLACE_BASELINES = list(QUOTED_SAVINGS[Design.IN_FT_QCLA1.value])


def _per_step_counts(design: Design, n: int) -> list[tuple[str, int, int]]:
    """(stage, gadget count, T per gadget) per T-consuming stage of a design.
    The in-place designs undo the carry network at width n - 1 (n >= 2 by the
    cost form's domain guard, so no count is negative)."""
    and_t, toffoli_t = GADGETS[GateKind.TEMP_AND].t_cost, GADGETS[GateKind.TOFFOLI].t_cost
    merge_t = and_t if design.uses_and_pairs else toffoli_t
    steps = [("initial generate bits", n, and_t)]
    for m in (n, n - 1) if design.in_place else (n,):
        w, lg, tag = hamming_weight(m), floor_log2(m), "" if m == n else "reverse "
        steps += [
            (tag + "propagate spans", m - w - lg, and_t),
            (tag + "carry merges", m - w, merge_t),
            (tag + "completed carries", m - lg - 1, merge_t),
        ]
    return steps


def formula_tcount(design: Design, n: int, source: str = "table") -> int:
    """Evaluate a design's T-count closed form.

    source="table" evaluates the published closed form; source="per_step" sums
    the per-stage gadget costs.  The two differ by the ``t_offset`` of the
    design's :data:`DESIGN_COSTS` row (a known inconsistency this artifact
    reproduces), and agree where the row declares none.
    """
    table, _ = DESIGN_COSTS[design].evaluate(n)
    if source == "table":
        assert table.denominator == 1
        return int(table)
    if source == "per_step":
        return sum(count * t_per for _, count, t_per in _per_step_counts(design, n))
    raise ValueError(f"unknown formula source {source!r}")


def formula_qubits(design: Design, n: int) -> int:
    _, value = DESIGN_COSTS[design].evaluate(n)
    assert value.denominator == 1
    return int(value)


# ---------------------------------------------------------------------------
# the cost rule

class CostRow(SimpleNamespace):
    """One design at one width: measured and closed-form T-count and qubits,
    built by keyword.  A namespace rather than a dataclass, which costs about
    0.4 ms to create (Python 3.11.7 on a shared 2-core machine)."""

    design: str
    n: int
    measured_t: int
    per_step_t: int
    table_t: int
    measured_qubits: int
    formula_qubits: int


COST_CHECKS = (
    "t-count conformance (measured == stage sum)",
    "closed form == stage sum (except In-FT-QCLA1)",
    "qubit conformance (constant per-design delta, |delta| <= 1)",
    "In-FT-QCLA1 closed-form/stage-sum delta identity",
)


def judge_costs(design: Design, n: int) -> tuple[ResourceReport, CostRow, tuple[str, ...]]:
    """The one cost rule, of ``qcla verify`` and ``qcla cost --check-formulas``:
    the count of the lowered ``build(design, n)``, its cost row, and its
    failure of each of :data:`COST_CHECKS` in order ("" where it passes).
    The row's offsets are the deltas it allows: a row that declares a
    ``t_offset`` is judged by the delta identity, every other row by its
    closed form."""
    model = DESIGN_COSTS[design]
    rep = count(lower(build(design, n)))
    step, table = formula_tcount(design, n, "per_step"), formula_tcount(design, n, "table")
    qf = formula_qubits(design, n)
    row = CostRow(design=design.value, n=n, measured_t=rep.t_count, per_step_t=step,
                  table_t=table, measured_qubits=rep.qubit_count, formula_qubits=qf)
    where, q_delta = f"{design.value} n={n}", rep.qubit_count - qf
    offset = model.t_offset
    delta = offset.evaluate(n) if offset else 0
    return rep, row, (
        "" if rep.t_count == step else f"{where}: measured {rep.t_count} != stage sum {step}",
        "" if offset or step == table else f"{where}: stage sum {step} != closed form {table}",
        "" if q_delta == model.qubit_offset else f"{where}: qubit delta {q_delta}",
        "" if not offset or step - table == delta
        else f"{where}: stage sum - closed form {step - table} != delta {delta}",
    )


# ---------------------------------------------------------------------------
# savings


def round_half_up(value: Fraction) -> str:
    """Exact half-up rounding of a rational, rendered with two decimals."""
    scaled = value * 100
    units = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // 100}.{units % 100:02d}"


@dataclass(frozen=True)
class SavingsFigure:
    """Leading-coefficient T-gate savings of one design over one baseline."""

    design: str
    baseline: str
    percent: Fraction | None  # None for asymptotic-dominance baselines

    @property
    def kind(self) -> str:
        return "ratio" if self.percent is not None else "asymptotic-dominance"

    @property
    def display(self) -> str:
        return self.kind if self.percent is None else round_half_up(self.percent)


def savings(design: Design, baseline: str) -> SavingsFigure:
    """100 * (1 - lead_new / lead_baseline) on the leading n coefficient.

    A superlinear baseline (the cubic catalog row) has no linear lead
    coefficient; the result is the asymptotic-dominance sentinel.
    """
    new = DESIGN_COSTS[design].t_form
    base = CATALOG[baseline].t_form
    percent = None if base.superlinear else 100 * (1 - new.n / base.n)
    return SavingsFigure(DESIGN_COSTS[design].label, baseline, percent)


def savings_average(design: Design) -> Fraction:
    """Arithmetic mean of the per-baseline savings; neither baseline list
    holds the superlinear catalog row."""
    baselines = IN_PLACE_BASELINES if design.in_place else OUT_OF_PLACE_BASELINES
    values = [savings(design, b).percent for b in baselines]
    return sum(values, Fraction(0)) / len(values)


def depth_bound_fit(depths: dict[int, int]) -> tuple[int, int]:
    """Fit depth = alpha * floor(log2 n) + beta through the n = 4 and n = 8 points."""
    alpha = depths[8] - depths[4]
    beta = depths[4] - 2 * alpha
    return alpha, beta
