"""qcla benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload cost-table --seed 1 --seconds 32 --trace 0

Untraced (``--trace 0``) runs print the end-to-end metrics named in
BENCHMARK.json; traced (``--trace 1``) runs print the per-layer metrics, write
the spans and per-layer rows to ``bench/results/``, and report the tracing
overhead against an untraced pass made in the same process.  Each line
``metric <name> <value> <unit>`` names one metric; the last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
The exit code is nonzero when any operation failed its check.  The untraced
times are scaled to a reference host speed measured alongside them, and are
printed as measured too.

See bench/README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
MEMORY_WIDTHS = (8, 64, 256, 1024)
# Host-speed reference: after each timed operation, untraced passes run
# REFERENCE_LOOPS-iteration units of a fixed pure-Python loop for
# REFERENCE_SHARE of the operation's time.  A unit takes REFERENCE_UNIT_S on
# an unloaded core of the reference host (see README.md, "Steadiness").
REFERENCE_SHARE = 0.1
REFERENCE_LOOPS = 3000
REFERENCE_UNIT_S = 0.0005

# Set-up as a user pays it: import qcla, then one warm-up build, lower and
# count at n = 2.  Timed inside a fresh interpreter, excluding its start-up;
# reference units then run for as long again to give the host speed.
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {str(SRC)!r})
t0 = time.perf_counter()
import qcla
qcla.count(qcla.lower(qcla.build(qcla.Design.IN_FT_QCLA1, 2)))
setup = time.perf_counter() - t0
sys.path.insert(0, {str(BENCH)!r})
from run import reference_unit
spent, units = 0.0, 0
while spent < setup:
    r0 = time.perf_counter()
    reference_unit()
    spent += time.perf_counter() - r0
    units += 1
print(setup, units, spent)
"""

# bench/workloads.py imports qcla, and with it numpy, so it is imported only
# after main() has pinned the thread counts and put src/ on sys.path.

# Per-layer counts taken from span attributes: (metric, span-name prefix, attribute).
SPAN_COUNTS = (
    ("builders.gates_out", "builders.build", "gates_out"),
    ("lowering.gates_in", "lowering.lower", "gates_in"),
    ("lowering.gates_out", "lowering.lower", "gates_out"),
    ("revsim.inputs_checked", "revsim.", "inputs"),
    ("statevec.branches", "statevec.simulate", "branches"),
    ("qasm.bytes", "qasm.emit", "bytes"),
    ("jsonio.bytes", "jsonio.emit", "bytes"),
)
# Per-layer peak traced memory from the memory pass: (metric, span name).
SPAN_PEAKS = (("lowering.peak_kb", "lowering.lower"), ("jsonio.emit_peak_kb", "jsonio.emit"))


def measure_setup() -> tuple[float, float]:
    """Median set-up time over several fresh interpreters, at the reference
    host speed and as measured."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                              text=True, timeout=120, check=True)
        setup, units, spent = proc.stdout.strip().splitlines()[-1].split()
        raw.append(float(setup))
        scaled.append(float(setup) * REFERENCE_UNIT_S * int(units) / float(spent))
    return statistics.median(scaled), statistics.median(raw)


def reference_unit() -> int:
    """The host-speed reference: dict and integer work like the interpreter
    does inside qcla, and nothing from qcla itself."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_LOOPS):
        key = (i * 40503) & 255
        table[key] = table.get(key, 0) + i
        acc ^= key << (i & 15)
    return acc + len(table)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unavailable"
    return ref


def provenance() -> dict:
    import numpy
    import qcla

    return {
        "qcla": qcla.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git": git_revision(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


@dataclass
class PassResult:
    wall: float
    ops: list
    op_walls: list  # seconds of each operation, in ops order
    problems: dict  # op index -> problem
    totals: dict  # deterministic work and output counts
    spans: list
    reference_s: float = 0.0  # time of the reference units run in this pass
    reference_units: int = 0

    @property
    def speed(self) -> float:
        """Host speed during the pass relative to the reference host; 1.0 when
        no reference units ran."""
        if not self.reference_units:
            return 1.0
        return REFERENCE_UNIT_S * self.reference_units / self.reference_s

    @property
    def scaled_wall(self) -> float:
        """The pass time at the reference host speed."""
        return self.wall * self.speed


def run_pass(wl, ops, traced: bool) -> PassResult:
    """Run every operation once; only the operations themselves are timed.

    In an untraced pass, reference units run after each operation until
    their time reaches REFERENCE_SHARE of the operations' time so far, so the
    reference samples the host speed in proportion to where the pass spends
    its time.
    """
    from workloads import Tracer

    tracer = Tracer(traced)
    owed = reference_s = 0.0
    reference_units = 0
    outs = [None] * len(ops)
    problems: dict[int, str] = {}
    totals: dict[str, int] = {}
    op_walls = [0.0] * len(ops)
    gc.collect()
    for i, op in enumerate(ops):
        out = None
        tracer.begin_op(wl.name, op.design, op.n)
        t0 = perf_counter()
        try:
            out = op.run(tracer)
        except Exception as exc:  # a raising operation is a failed operation
            problems[i] = f"{type(exc).__name__}: {exc}"
        finally:
            op_walls[i] = perf_counter() - t0
            tracer.end_op()
        if not traced:
            owed += REFERENCE_SHARE * op_walls[i]
            while owed > 0:
                r0 = perf_counter()
                reference_unit()
                spent = perf_counter() - r0
                owed -= spent
                reference_s += spent
                reference_units += 1
        if out is not None:
            try:
                found = op.check(out, totals)
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                problems[i] = "; ".join(found)
            if wl.cross_check is not None:
                outs[i] = out
        del out  # release this operation's circuits before the next one runs
    if wl.cross_check is not None:
        for i, problem in wl.cross_check(ops, outs).items():
            problems.setdefault(i, problem)
    return PassResult(sum(op_walls), ops, op_walls, problems, totals, tracer.spans,
                      reference_s, reference_units)


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer self times and counts of one traced pass, and its rows keyed
    by (layer, design, n) with gates_in, gates_out and seconds."""
    from workloads import self_times

    own = self_times(spans)
    metrics: dict[str, float] = {"harness.self_s": 0.0}
    rows: dict[tuple, dict] = {}
    for s in spans:
        if s["name"] == "op":
            metrics["harness.self_s"] += own[s["id"]]
            continue
        key = f"{s['name']}_s"
        metrics[key] = metrics.get(key, 0.0) + own[s["id"]]
        parent = spans[s["parent"]]
        row = rows.setdefault((s["name"], parent["design"], parent["n"]),
                              {"gates_in": 0, "gates_out": 0, "seconds": 0.0})
        row["gates_in"] += s.get("gates_in", 0)
        row["gates_out"] += s.get("gates_out", 0)
        row["seconds"] += own[s["id"]]
    for name, prefix, attr in SPAN_COUNTS:
        values = [s.get(attr, 0) for s in spans if s["name"].startswith(prefix)]
        if values:
            metrics[name] = sum(values)
    return metrics, rows


def span_peaks(spans: list[dict]) -> tuple[dict, dict]:
    """Peak-memory metrics (KiB) of a memory pass, and peak bytes by
    (layer, design, n)."""
    peaks: dict[tuple, int] = {}
    for s in spans:
        if "peak_bytes" in s:
            parent = spans[s["parent"]]
            key = (s["name"], parent["design"], parent["n"])
            peaks[key] = max(peaks.get(key, 0), s["peak_bytes"])
    metrics = {}
    for name, span_name in SPAN_PEAKS:
        values = [v for (layer, _, _), v in peaks.items() if layer == span_name]
        if values:
            metrics[name] = max(values) / 1024
    return metrics, peaks


def memory_ops(ops: list) -> list:
    """The operations at the widths in MEMORY_WIDTHS and, for each kind of
    operation that has none of those widths, the ones at its largest width."""
    chosen = [op for op in ops if op.n in MEMORY_WIDTHS]
    covered = {op.kind for op in chosen}
    for kind in {op.kind for op in ops} - covered:
        top = max(op.n for op in ops if op.kind == kind)
        chosen += [op for op in ops if op.kind == kind and op.n == top]
    return chosen


def measure(wl, ops, seconds: float) -> list[PassResult]:
    """Repeat untraced passes while the next one is expected to end within
    ``seconds``; at least one pass is always made."""
    start = perf_counter()
    passes, lengths = [], []
    while True:
        t0 = perf_counter()
        passes.append(run_pass(wl, ops, traced=False))
        lengths.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(lengths) > seconds:
            return passes


def measure_traced(wl, ops) -> tuple[PassResult, PassResult, PassResult]:
    """An untraced baseline pass, a span pass, and a memory pass.

    The span pass records spans with timing only; its wall time minus the
    baseline's is the tracing overhead.  The memory pass runs ``memory_ops``
    under tracemalloc for per-span peak memory; tracemalloc slows
    allocation-heavy code several times over, so no time is taken from it.
    """
    baseline = run_pass(wl, ops, traced=False)
    spans = run_pass(wl, ops, traced=True)
    tracemalloc.start()
    try:
        memory = run_pass(wl, memory_ops(ops), traced=True)
    finally:
        tracemalloc.stop()
    return baseline, spans, memory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "qcla" / "__init__.py").is_file():
        print(f"error: no qcla sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    catalog = workloads.full_workloads()
    if args.workload not in catalog:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(catalog)}",
              file=sys.stderr)
        return 2
    wl = catalog[args.workload]

    workloads.warm_up()
    ops = wl.make_ops(random.Random(args.seed))
    if args.trace:
        baseline, traced, memory = measure_traced(wl, ops)
        passes, every = [traced], [baseline, traced, memory]
        repeated = [baseline, traced]
    else:
        passes = every = repeated = measure(wl, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_checks, quality = [], {}
    if wl.run_checks:
        try:
            run_checks, quality = wl.run_checks()
        except Exception as exc:
            run_checks = [("once-per-run checks", f"raised {type(exc).__name__}: {exc}")]

    # operation accounting: every pass's operations, the once-per-run checks,
    # and one check that the deterministic totals repeat across full passes
    attempted = sum(len(p.ops) for p in every) + len(run_checks) + 1
    failures = [f"{p.ops[i].kind} {p.ops[i].design} n={p.ops[i].n}: {msg}"
                for p in every for i, msg in sorted(p.problems.items())]
    failures += [f"{label}: {msg}" for label, msg in run_checks if msg]
    totals = passes[0].totals
    if any(p.totals != totals for p in repeated):
        failures.append("deterministic totals differ between passes")

    prov = provenance()
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"workload {wl.name} seed {args.seed} sizes {wl.sizes} traced {args.trace}")
    for line in failures[:20]:
        print(f"FAIL {line}")
    print(f"operations attempted {attempted} failed {len(failures)}"
          f" fail_ratio {len(failures) / attempted}")

    if args.trace:
        values, rows = layer_metrics(traced.spans)
        values["trace.overhead_s"] = traced.wall - baseline.wall
        peak_metrics, peaks = span_peaks(memory.spans)
        values.update(peak_metrics)
        rows = [{"layer": layer, "design": design, "n": n, **row,
                 "peak_bytes": peaks.get((layer, design, n))}
                for (layer, design, n), row in rows.items()]
        if wl.name == "verify":
            print("note: exhaustive_check and random_check build their circuits internally;"
                  " that build time is inside revsim.exhaustive_s and revsim.random_s")
        print(f"untraced pass {baseline.wall} s, span pass {traced.wall} s,"
              f" memory pass of {len(memory.ops)} operations {memory.wall} s")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in sorted(values):
            unit = units.get(name, "s" if name.endswith("_s") else
                             "KiB" if name.endswith("_kb") else "count")
            print(f"metric {name} {values[name]} {unit}")
        write_trace(wl, args.seed, prov, values, rows, every)
        wanted = spec["per_layer"]
    else:
        walls = [p.scaled_wall for p in passes]
        wall_s = statistics.median(walls)
        setup_s, setup_raw = measure_setup()
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "gates_per_s": totals.get("gates_lowered", 0) / wall_s,
            "peak_rss_mb": peak_rss_mb,
            **{k: (quality or totals).get(k, 0) for k in workloads.QUALITY_KEYS},
        }
        print(f"wall_s passes {len(walls)} min {min(walls)} max {max(walls)}")
        print(f"as measured: wall_s median {statistics.median(p.wall for p in passes)},"
              f" setup_s median {setup_raw}; host speed median"
              f" {statistics.median(p.speed for p in passes)} of the reference")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if "inputs" in totals:
            values["inputs_per_s"] = totals["inputs"] / wall_s
            units["inputs_per_s"] = "1/s"
        if "export_bytes" in totals:
            values["export_bytes"] = totals["export_bytes"]
            units["export_bytes"] = "bytes"
        for name, value in values.items():
            print(f"metric {name} {value} {units[name]}")
        wanted = spec["end_to_end"]

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def write_trace(wl, seed: int, prov: dict, values: dict, rows: list[dict], passes) -> None:
    """Write the per-layer rows and the spans of every pass to bench/results/."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{wl.name}_seed{seed}.json"
    doc = {
        "workload": wl.name,
        "seed": seed,
        "provenance": prov,
        "metrics": values,
        "rows": rows,
        "passes": [{"wall_s": p.wall, "traced": bool(p.spans), "spans": p.spans}
                   for p in passes],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"trace written to {path}")


if __name__ == "__main__":
    sys.exit(main())
