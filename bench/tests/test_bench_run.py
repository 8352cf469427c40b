"""Self-test of the benchmark at reduced sizes.

    PYTHONPATH=src python -m pytest bench/tests -q

Runs every workload untraced and traced through ``run.main``, checks that
the printed metrics match BENCHMARK.json, that a wrong reference value is
counted as a failed operation and makes the command exit nonzero, that the
output-quality counts do not depend on the seed, and that the benchmark
refuses to run without the package sources.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "cost-table": lambda: workloads.cost_table((1, 2, 3, 4, 8, 16)),
    "verify": lambda: workloads.verify(max_n=3, random_widths=(8,), pairs=16,
                                       sim_widths=(2,), sim_inputs=2),
    "export": lambda: workloads.export(4),
}

# layers each workload calls, whose self time the traced run must report
LAYERS = {
    "cost-table": ["builders.build_s", "lowering.lower_s", "resources.count_cliffordt_s",
                   "resources.count_toffoli_s"],
    "verify": ["builders.build_s", "lowering.lower_s", "revsim.exhaustive_s", "revsim.random_s",
               "statevec.simulate_s", "statevec.gadget_s"],
    "export": ["builders.build_s", "lowering.lower_s", "qasm.emit_s", "qasm.parse_s",
               "jsonio.emit_s", "jsonio.parse_s"],
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "full_workloads", lambda: {k: f() for k, f in SMALL.items()})
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")


def invoke(capsys, workload: str, seed: int = 1, trace: int = 0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    metrics = {parts[1]: float(parts[2]) for parts in map(str.split, lines)
               if parts[0] == "metric"}
    return code, json.loads(lines[-1]), metrics


@pytest.mark.parametrize("workload", list(SMALL))
def test_untraced_run_reports_every_end_to_end_metric(small, capsys, workload):
    code, result, _ = invoke(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(SMALL))
def test_traced_run_reports_layers_rows_and_overhead(small, capsys, tmp_path, workload):
    code, result, metrics = invoke(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name in LAYERS[workload] + ["trace.overhead_s", "harness.self_s"]:
        assert name in metrics
    trace = json.loads((tmp_path / f"BENCH_{workload}_seed1.json").read_text())
    assert trace["provenance"]["threads"] == {v: "1" for v in run.THREAD_VARS}
    layers = {row["layer"] for row in trace["rows"]}
    assert layers == {name[: -len("_s")] for name in LAYERS[workload]}
    for row in trace["rows"]:
        assert set(row) == {"layer", "design", "n", "gates_in", "gates_out", "seconds",
                            "peak_bytes"}
    spans = trace["passes"][1]["spans"]
    assert all(s["parent"] is not None for s in spans if s["name"] != "op")


def test_wrong_tcount_reference_counts_as_failure(small, capsys, monkeypatch):
    real = workloads.ref_tcount
    monkeypatch.setattr(workloads, "ref_tcount", lambda d, n: real(d, n) + 1)
    code, result, _ = invoke(capsys, "cost-table")
    assert code != 0 and not result["correct"]
    cost_ops = len(SMALL["cost-table"]().make_ops(random.Random(1)))
    assert result["failed"] == cost_ops


def test_wrong_sum_reference_counts_as_failure(small, capsys, monkeypatch):
    real = workloads.ref_sum
    monkeypatch.setattr(workloads, "ref_sum", lambda a, b, n: real(a, b, n) + 1)
    code, result, _ = invoke(capsys, "verify")
    assert code != 0
    assert result["failed"] == 4  # one simulate operation per design


@pytest.mark.parametrize("workload", list(SMALL))
def test_output_counts_do_not_depend_on_seed(small, capsys, workload):
    keys = ["t_count", "t_depth", "total_depth", "qubits", "export_bytes"]
    _, _, first = invoke(capsys, workload, seed=1)
    _, _, second = invoke(capsys, workload, seed=2)
    assert [first.get(k) for k in keys] == [second.get(k) for k in keys]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_untraced_pass_samples_host_speed_in_proportion_to_its_time():
    wl = SMALL["export"]()
    ops = wl.make_ops(random.Random(1))
    untraced = run.run_pass(wl, ops, traced=False)
    assert untraced.reference_units > 0 and not untraced.problems
    assert untraced.reference_s >= run.REFERENCE_SHARE * untraced.wall
    assert untraced.scaled_wall == pytest.approx(untraced.wall * untraced.speed)
    traced = run.run_pass(wl, ops, traced=True)
    assert traced.reference_units == 0 and traced.scaled_wall == traced.wall
