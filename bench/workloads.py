"""The three benchmark workloads, their reference checks, and the span tracer.

Every call into a ``qcla`` layer goes through :meth:`Tracer.call`, so a traced
pass records one span per layer call, parented to the operation (workload,
design, n) that made it.  Untraced passes make the same calls with no span
bookkeeping.

Each workload is a list of operations run one at a time (a closed loop from
one process).  An operation's ``run`` is the timed part; its ``check``, run
after the timer stops, compares the outputs with references that are not the
code under test: the closed-form cost tables, the golden qubit deltas, the
logarithmic depth bound, the classical carry-lookahead oracle plus native
addition, and the golden export bytes.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from qcla.builders import Design, build, cla_reference
from qcla.jsonio import from_json, to_json
from qcla.lowering import lower
from qcla.qasm import parse_qasm3, to_qasm3
from qcla.resources import count, formula_qubits, formula_tcount
from qcla.revsim import exhaustive_check, random_check
from qcla.statevec import AllBranches, gadget_unitary_check, simulate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"
QUBIT_DELTAS = json.loads((GOLDEN / "qubit_deltas.json").read_text())

PROB_TOL = 1e-9
GADGET_TOL = 1e-10
QUALITY_KEYS = ("t_count", "t_depth", "total_depth", "qubits")


# ---------------------------------------------------------------------------
# references (module-level so the self-test can inject a wrong value)


def ref_tcount(design: Design, n: int) -> int:
    return formula_tcount(design, n, "per_step")


def ref_qubits(design: Design, n: int) -> int:
    return formula_qubits(design, n) + QUBIT_DELTAS[design.value]


def ref_sum(a: int, b: int, n: int) -> int:
    """The carry-lookahead oracle's sum, or -1 when it disagrees with native +."""
    s = cla_reference(a, b, n)
    return s if s == a + b else -1


def floor_log2(n: int) -> int:
    return n.bit_length() - 1


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory span recorder; a disabled tracer only forwards calls.

    Spans are dicts with a name, start and end (perf_counter seconds), the id
    of the parent span, and optional counts.  While tracemalloc is running,
    layer spans also carry the peak traced memory above their starting level.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._parent: int | None = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {"id": len(self.spans), "name": name, "parent": self._parent}
        self.spans.append(span)
        memory = tracemalloc.is_tracing()
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        span["start"] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            if memory:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base

    def note(self, **counts: int) -> None:
        """Attach counts to the most recent span."""
        if self.enabled:
            self.spans[-1].update(counts)

    def begin_op(self, workload: str, design: str, n: int) -> None:
        if self.enabled:
            span = {"id": len(self.spans), "name": "op", "parent": None,
                    "workload": workload, "design": design, "n": n, "start": perf_counter()}
            self.spans.append(span)
            self._parent = span["id"]

    def end_op(self) -> None:
        if self.enabled:
            self.spans[self._parent]["end"] = perf_counter()
            self._parent = None


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its child spans cover (children never overlap)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One closed-loop operation.  ``run`` is timed; ``check`` is not.

    ``check`` returns a list of problems (empty when the outputs match their
    references) and may add to the pass totals.
    """

    kind: str
    design: str
    n: int
    run: Callable[[Tracer], dict]
    check: Callable[[dict, dict], list[str]]


@dataclass
class Workload:
    name: str
    make_ops: Callable[[random.Random], list[Op]]
    # cross-operation checks over one pass: (ops, their outputs) -> {op index: problem}
    cross_check: Callable[[list[Op], list[dict | None]], dict[int, str]] | None = None
    # untimed once-per-run checks: (label, problem or None) pairs and quality counts
    run_checks: Callable[[], tuple[list[tuple[str, str | None]], dict]] | None = None
    sizes: dict = field(default_factory=dict)


def _add(totals: dict, **counts: int) -> None:
    for key, value in counts.items():
        totals[key] = totals.get(key, 0) + value


def _build_lower(tr: Tracer, design: Design, n: int):
    circ = tr.call("builders.build", build, design, n)
    tr.note(gates_out=len(circ.gates))
    low = tr.call("lowering.lower", lower, circ)
    tr.note(gates_in=len(circ.gates), gates_out=len(low.gates))
    return circ, low


def _quality(rep) -> dict:
    return {"t_count": rep.t_count, "t_depth": rep.t_depth,
            "total_depth": rep.total_depth, "qubits": rep.qubit_count}


def _cost_problems(design: Design, n: int, q: dict) -> list[str]:
    problems = []
    if q["t_count"] != ref_tcount(design, n):
        problems.append(f"t_count {q['t_count']} != stage sum {ref_tcount(design, n)}")
    if q["qubits"] != ref_qubits(design, n):
        problems.append(f"qubits {q['qubits']} != formula+delta {ref_qubits(design, n)}")
    return problems


def _designs_widths(widths: tuple[int, ...]) -> list[tuple[Design, int]]:
    return [(d, n) for d in Design for n in widths if n >= (2 if d.in_place else 1)]


# -- cost-table ---------------------------------------------------------------


def _cost_op(design: Design, n: int) -> Op:
    def run(tr: Tracer) -> dict:
        circ, low = _build_lower(tr, design, n)
        rep = tr.call("resources.count_cliffordt", count, low)
        rep_toffoli = tr.call("resources.count_toffoli", count, circ)
        return {"quality": _quality(rep), "logical_depth": rep_toffoli.total_depth,
                "toffoli_qubits": rep_toffoli.qubit_count, "lowered": len(low.gates)}

    def check(out: dict, totals: dict) -> list[str]:
        q = out["quality"]
        _add(totals, gates_lowered=out["lowered"], **q)
        problems = _cost_problems(design, n, q)
        if out["toffoli_qubits"] != q["qubits"]:
            problems.append("lowering changed the qubit count")
        return problems

    return Op("cost", design.value, n, run, check)


def _depth_bound_check(ops: list[Op], outs: list[dict | None]) -> dict[int, str]:
    """Logical depth and T-depth at powers of two stay within alpha*log2(n)+beta
    (fitted through n = 4 and 8) and never decrease."""
    failed: dict[int, str] = {}
    for design in Design:
        rows = sorted(
            (op.n, i) for i, op in enumerate(ops)
            if op.design == design.value and op.n >= 4 and op.n & (op.n - 1) == 0
            and outs[i] is not None
        )
        for label, get in (("logical depth", lambda o: o["logical_depth"]),
                           ("t-depth", lambda o: o["quality"]["t_depth"])):
            depths = {n: get(outs[i]) for n, i in rows}
            if 4 not in depths or 8 not in depths:
                continue
            alpha = depths[8] - depths[4]
            beta = depths[4] - 2 * alpha
            prev = 0
            for n, i in rows:
                if depths[n] < prev or depths[n] > alpha * floor_log2(n) + beta:
                    failed[i] = f"{label} {depths[n]} outside {alpha}*log2(n)+{beta}"
                prev = depths[n]
    return failed


def cost_table(widths: tuple[int, ...]) -> Workload:
    def make_ops(rng: random.Random) -> list[Op]:
        ops = [_cost_op(d, n) for d, n in _designs_widths(widths)]
        rng.shuffle(ops)
        return ops

    return Workload(
        "cost-table", make_ops, cross_check=_depth_bound_check,
        sizes={"widths": len(widths), "max_n": max(widths)},
    )


# -- verify -------------------------------------------------------------------


def _exhaustive_op(design: Design, n: int, max_n: int) -> Op:
    def run(tr: Tracer) -> dict:
        rep = tr.call("revsim.exhaustive", exhaustive_check, design, n, max_n=max_n)
        tr.note(inputs=rep.total)
        return {"rep": rep}

    def check(out: dict, totals: dict) -> list[str]:
        rep = out["rep"]
        _add(totals, inputs=rep.total)
        if rep.total != 4**n:
            return [f"exhaustive check covered {rep.total} of {4**n} pairs"]
        return [] if rep.passed else [rep.summary()]

    return Op("exhaustive", design.value, n, run, check)


def _random_op(design: Design, n: int, pairs: int, seed: int) -> Op:
    def run(tr: Tracer) -> dict:
        rep = tr.call("revsim.random", random_check, design, n, pairs, seed=seed)
        tr.note(inputs=rep.total)
        return {"rep": rep}

    def check(out: dict, totals: dict) -> list[str]:
        rep = out["rep"]
        _add(totals, inputs=rep.total)
        if rep.total != pairs:
            return [f"random check covered {rep.total} of {pairs} pairs"]
        return [] if rep.passed else [rep.summary()]

    return Op("random", design.value, n, run, check)


def _simulate_op(design: Design, n: int, operands: list[tuple[int, int]]) -> Op:
    def run(tr: Tracer) -> dict:
        _, low = _build_lower(tr, design, n)
        results = []
        for a, b in operands:
            outs = tr.call("statevec.simulate", simulate, low, {"A": a, "B": b}, AllBranches())
            tr.note(gates_in=len(low.gates), branches=len(outs))
            results.append(outs)
        return {"results": results, "lowered": len(low.gates)}

    def check(out: dict, totals: dict) -> list[str]:
        _add(totals, gates_lowered=out["lowered"], inputs=len(operands),
             branches=sum(len(r) for r in out["results"]))
        problems = []
        for (a, b), outs in zip(operands, out["results"]):
            sums = {o.labeled_int("s") for o in outs}
            ptot = sum(o.probability for o in outs)
            if sums != {ref_sum(a, b, n)} or abs(ptot - 1) > PROB_TOL:
                problems.append(f"a={a} b={b}: branch sums {sorted(sums)}, total p {ptot}")
        return problems

    return Op("simulate", design.value, n, run, check)


def _gadget_op(gadget: str) -> Op:
    def run(tr: Tracer) -> dict:
        return {"chk": tr.call("statevec.gadget", gadget_unitary_check, gadget)}

    def check(out: dict, totals: dict) -> list[str]:
        chk = out["chk"]
        ok = chk.passed and chk.cases > 0 and chk.max_deviation < GADGET_TOL
        return [] if ok else [f"gadget {gadget}: deviation {chk.max_deviation}"]

    return Op("gadget", gadget, 0, run, check)


def verify(max_n: int, random_widths: tuple[int, ...], pairs: int,
           sim_widths: tuple[int, ...], sim_inputs: int) -> Workload:
    def make_ops(rng: random.Random) -> list[Op]:
        ops = [_exhaustive_op(d, n, max_n) for d in Design for n in range(1, max_n + 1)]
        ops += [_random_op(d, n, pairs, rng.randrange(2**32)) for d in Design for n in random_widths]
        for d in Design:
            for n in sim_widths:
                operands = [(rng.randrange(2**n), rng.randrange(2**n)) for _ in range(sim_inputs)]
                ops.append(_simulate_op(d, n, operands))
        ops += [_gadget_op(g) for g in ("toffoli", "and", "and_uncompute_pair")]
        return ops

    def run_checks():
        return _quality_checks(_designs_widths(sim_widths))

    return Workload(
        "verify", make_ops, run_checks=run_checks,
        sizes={"max_n": max_n, "random_widths": random_widths, "pairs": pairs,
               "sim_widths": sim_widths, "sim_inputs": sim_inputs},
    )


# -- export -------------------------------------------------------------------


def _export_op(design: Design, n: int) -> Op:
    def run(tr: Tracer) -> dict:
        _, low = _build_lower(tr, design, n)
        text = tr.call("qasm.emit", to_qasm3, low)
        tr.note(bytes=len(text))
        back = tr.call("qasm.parse", parse_qasm3, text)
        tr.note(gates_out=len(back.gates))
        js = tr.call("jsonio.emit", to_json, low)
        tr.note(bytes=len(js))
        jback = tr.call("jsonio.parse", from_json, js)
        tr.note(gates_out=len(jback.gates))
        return {"low": low, "text": text, "back": back, "js": js, "jback": jback}

    def check(out: dict, totals: dict) -> list[str]:
        low, back = out["low"], out["back"]
        _add(totals, gates_lowered=len(low.gates),
             export_bytes=len(out["text"].encode()) + len(out["js"].encode()))
        problems = []
        regs = [(r.name, r.size, r.inits) for r in low.registers.values()]
        if ([(r.name, r.size, r.inits) for r in back.registers.values()] != regs
                or back.gates != low.gates or back.num_cbits != low.num_cbits):
            problems.append("QASM round trip changed the circuit")
        if out["jback"].structural_key() != low.structural_key():
            problems.append("JSON round trip changed the circuit")
        return problems

    return Op("export", design.value, n, run, check)


def _golden_checks() -> list[tuple[str, str | None]]:
    checks = []
    for design in Design:
        path = GOLDEN / f"{design.key}_n2.qasm"
        same = to_qasm3(lower(build(design, 2))) == path.read_text()
        checks.append((f"golden {path.name}", None if same else "bytes differ"))
    same = to_json(lower(build(Design.OUT_FT_QCLA1, 2))) == (GOLDEN / "out1_n2.json").read_text()
    checks.append(("golden out1_n2.json", None if same else "bytes differ"))
    return checks


def export(n: int) -> Workload:
    def make_ops(rng: random.Random) -> list[Op]:
        ops = [_export_op(d, n) for d in Design]
        rng.shuffle(ops)
        return ops

    def run_checks():
        checks, quality = _quality_checks(_designs_widths((n,)))
        return _golden_checks() + checks, quality

    return Workload(
        "export", make_ops, run_checks=run_checks, sizes={"n": n},
    )


def _quality_checks(pairs: list[tuple[Design, int]]):
    """Output-quality counts of the lowered circuits a workload produces, each
    checked against the cost references."""
    checks, quality = [], dict.fromkeys(QUALITY_KEYS, 0)
    for design, n in pairs:
        q = _quality(count(lower(build(design, n))))
        _add(quality, **q)
        problems = _cost_problems(design, n, q)
        checks.append((f"quality {design.value} n={n}", "; ".join(problems) or None))
    return checks, quality


# ---------------------------------------------------------------------------
# the workloads at full size

COST_WIDTHS = tuple(range(1, 65)) + (128, 256, 512, 1024)


def full_workloads() -> dict[str, Workload]:
    return {
        "cost-table": cost_table(COST_WIDTHS),
        "verify": verify(max_n=7, random_widths=(64, 256, 1024), pairs=256,
                         sim_widths=(2, 3), sim_inputs=16),
        "export": export(256),
    }


def warm_up() -> None:
    """The set-up warm-up: one build, lower and count at n = 2."""
    count(lower(build(Design.IN_FT_QCLA1, 2)))
