"""Command-line interface.

Subcommands: ``gen`` (emit a circuit), ``cost`` (measured vs closed-form
resources), ``sim`` (add two numbers on a simulator backend), ``compare``
(cost catalog with savings percentages), ``verify`` (the full verification
suite with the known-discrepancy ledger).

Usage errors exit 2: argparse's, bad input values including an integer
option or QCLA_SEED not spelled in ASCII digits (see :func:`integer`), a
simulator limit such as the statevector branch cap, and a width too large
for memory, in any subcommand.  A handler raises
``ValueError`` (``SimulationError`` is one) or ``MemoryError``, and
:func:`cli` alone prints it as one ``error: ...`` line.  Verification
failures exit 1, and so does ``cost --check-formulas`` on any cost check
``verify`` would fail.  The environment variable QCLA_SEED overrides the
default simulation seed of 42.

Each subcommand imports only the modules it calls.  Every one loads what
``import qcla`` loads (ir, builders, lowering and measure); ``gen`` adds
jsonio or qasm; ``cost`` and ``compare`` add resources, the closed cost
forms; ``sim`` adds revsim, or statevec for the statevector backend; only
``verify`` loads validate, which loads everything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .builders import Design, build, design_from_key
from .lowering import lower
from .measure import count

DESIGN_KEYS = [d.key for d in Design]


def integer(text: str) -> int:
    """The one reader of the integers the CLI is given: ASCII digits after an
    optional leading ``-``, as the QASM parser and ``label_index`` read them.
    Anything else raises ValueError, which ``int()`` alone would not for other
    Unicode digits, ``_`` separators, a ``+`` or padding."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _default_seed() -> int:
    raw = os.environ.get("QCLA_SEED", "42")
    try:
        return integer(raw)
    except ValueError:
        raise ValueError(f"QCLA_SEED must be an integer, got {raw!r}") from None


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    design = design_from_key(args.design)
    circ = build(design, args.n)
    if args.level == "cliffordt":
        circ = lower(circ)
    if args.format == "qasm3":
        if args.level != "cliffordt":
            raise ValueError("qasm3 output requires --level cliffordt")
        from .qasm import to_qasm3

        _write(to_qasm3(circ), args.output)
    else:
        from .jsonio import to_json

        _write(to_json(circ), args.output)
    return 0


def _cmd_cost(args) -> int:
    from .resources import DESIGN_COSTS, judge_costs

    design = design_from_key(args.design)
    rows = []
    failures = []  # every failed cost check, as qcla verify would report it
    # a range wholly below the closed-form domain ends in its domain error
    start = max(args.n_from, min(DESIGN_COSTS[design].min_n, args.n_to))
    for n in range(start, args.n_to + 1):
        rep, cost, fails = judge_costs(design, n)
        row = {"design": design.value, "n": n, "t_count": rep.t_count, "t_depth": rep.t_depth,
               "total_depth": rep.total_depth, "qubits": rep.qubit_count,
               "cnots": rep.cnot_count, "measurements": rep.measurement_count}
        if args.check_formulas:
            row.update(stage_sum_t=cost.per_step_t, closed_form_t=cost.table_t,
                       closed_form_qubits=cost.formula_qubits,
                       t_delta=rep.t_count - cost.per_step_t,
                       qubit_delta=rep.qubit_count - cost.formula_qubits)
            failures += filter(None, fails)
        rows.append(row)
    if not rows:
        raise ValueError("empty width range")
    if args.format == "json":
        _write(json.dumps(rows, indent=2) + "\n", args.output)
    else:
        sep = "," if args.format == "csv" else "  "
        lines = [sep.join(rows[0])] + [sep.join(map(str, row.values())) for row in rows]
        _write("\n".join(lines) + "\n", args.output)
    for failure in failures:
        print(f"formula mismatch: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _branch_seed(text: str) -> int | None:
    """The ``--branches`` option: None for "all", else the seed to follow."""
    if text in ("all", "seed"):
        return None if text == "all" else _default_seed()
    if text.startswith("seed:"):
        try:
            return integer(text.removeprefix("seed:"))
        except ValueError:
            pass
    raise ValueError(f"--branches must be 'all', 'seed' or 'seed:S', got {text!r}")


def _cmd_sim(args) -> int:
    seed = _branch_seed(args.branches)  # checked on either backend
    design = design_from_key(args.design)
    circ = build(design, args.n)
    if args.backend == "reversible":
        from .revsim import initial_state, read_labeled, run_basis

        out = run_basis(circ, initial_state(circ, {"A": args.a, "B": args.b}))
        total = read_labeled(circ, out, "s")
        print(total)
        return 0 if total == args.a + args.b else 1
    from .statevec import AllBranches, SeededRandom, simulate

    lowered = lower(circ)
    strategy = AllBranches() if seed is None else SeededRandom(seed)
    outcomes = simulate(lowered, {"A": args.a, "B": args.b}, strategy)
    sums = {o.labeled_int("s") for o in outcomes}
    for o in outcomes:
        cbits = "".join(map(str, o.cbits))
        print(f"sum={o.labeled_int('s')} probability={o.probability:.6g} cbits={cbits}")
    if sums == {args.a + args.b}:
        print(f"verdict: deterministic, correct ({args.a} + {args.b} = {args.a + args.b})")
        return 0
    print(f"verdict: MISMATCH (expected {args.a + args.b}, read {sorted(sums)})")
    return 1


def _cmd_compare(args) -> int:
    from .resources import (
        CATALOG,
        IN_PLACE_BASELINES,
        OUT_OF_PLACE_BASELINES,
        UNREPRODUCED_AVERAGE,
        round_half_up,
        savings,
        savings_average,
    )

    in_place = args.table == "in"
    designs = [d for d in Design if d.in_place == in_place]
    baselines = IN_PLACE_BASELINES if in_place else OUT_OF_PLACE_BASELINES
    n = args.n
    lines = [f"{'design':<18}{'T-count':>14}{'qubits':>10}  savings vs baselines"]
    for label in baselines:
        model = CATALOG[label]
        t_count, qubits = model.evaluate(n)
        t_str = str(t_count) if t_count.denominator == 1 else f"{t_count} (non-integer)"
        approx = " (approx)" if model.approximate else ""
        lines.append(f"{label:<18}{t_str:>14}{str(qubits):>10}{approx}")
    for design in designs:
        rep = count(lower(build(design, n)))
        parts = [f"{label}: {savings(design, label).display}" for label in baselines]
        avg = round_half_up(savings_average(design))
        note = ""
        if design.value == UNREPRODUCED_AVERAGE[0]:
            note = f" (published {UNREPRODUCED_AVERAGE[1]}, unreproduced)"
        lines.append(
            f"{design.value:<18}{rep.t_count:>14}{rep.qubit_count:>10}  "
            + "; ".join(parts)
            + f"; average: {avg}{note}"
        )
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    from .validate import run_validation

    report = run_validation(full=args.full)
    for name, ok, detail, seconds in report.checks:
        status = "pass" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail and not ok else ""
        print(f"{status}  {seconds:7.3f} s  {name}{suffix}")
    print(f"known discrepancies reproduced: {len(report.discrepancies)}")
    for d in report.discrepancies:
        print(f"  - {d.id}: {d.values}")
    out = args.output or "validation_report.json"
    with open(out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    print(f"report written to {out}")
    return 0 if report.passed else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcla", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a circuit")
    p.add_argument("--design", required=True, choices=DESIGN_KEYS)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--level", choices=["toffoli", "cliffordt"], default="toffoli")
    p.add_argument("--format", choices=["qasm3", "json"], default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("cost", help="measured resources vs closed forms")
    p.add_argument("--design", required=True, choices=DESIGN_KEYS)
    p.add_argument("--n-from", type=integer, required=True)
    p.add_argument("--n-to", type=integer, required=True)
    p.add_argument("--check-formulas", action="store_true")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("sim", help="add two numbers on a simulator")
    p.add_argument("--design", required=True, choices=DESIGN_KEYS)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--a", type=integer, required=True)
    p.add_argument("--b", type=integer, required=True)
    p.add_argument("--backend", choices=["reversible", "statevector"], default="reversible")
    p.add_argument("--branches", default="all",
                   help='"all", "seed" (QCLA_SEED, default 42) or "seed:S"')
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("compare", help="cost catalog with savings percentages")
    p.add_argument("--table", required=True, choices=["out", "in"])
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--full", action="store_true", help="complete acceptance bounds")
    p.add_argument("-o", "--output", default=None, help="report path (default validation_report.json)")
    p.set_defaults(func=_cmd_verify)
    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
