"""Command-line interface behavior and exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import replaced
from hypothesis import given, settings, strategies as st

from qcla import resources, validate
from qcla.builders import Design, build
from qcla.cli import DESIGN_KEYS, cli
from qcla.resources import formula_tcount
from qcla.statevec import SimulationError


def test_sim_reversible(capsys):
    assert cli(["sim", "--design", "out1", "--n", "4", "--a", "5", "--b", "7",
                "--backend", "reversible"]) == 0
    assert capsys.readouterr().out.strip() == "12"


def test_sim_statevector_all_branches(capsys):
    assert cli(["sim", "--design", "in2", "--n", "2", "--a", "3", "--b", "2",
                "--backend", "statevector", "--branches", "all"]) == 0
    out = capsys.readouterr().out
    assert "deterministic, correct (3 + 2 = 5)" in out


def test_sim_statevector_mismatch_exits_1(monkeypatch, capsys):
    """Without its last gate (A[0] -> X[0]) Out-FT-QCLA2 reads s0 = b0."""

    def short_build(design, n):
        circ = build(design, n)
        return replaced(circ, gates=circ.gates[:-1])

    monkeypatch.setattr("qcla.cli.build", short_build)
    assert cli(["sim", "--design", "out2", "--n", "2", "--a", "1", "--b", "0",
                "--backend", "statevector", "--branches", "all"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "verdict: MISMATCH (expected 1, read [0])"


def test_cost_check_formulas(capsys):
    code = cli(["cost", "--design", "out1", "--n-from", "8", "--n-to", "8",
                "--check-formulas"])
    assert code == 0
    out = capsys.readouterr().out
    row = out.splitlines()[1].split()
    assert "92" in row and "40" in row


def _judged_cost(argv, capsys):
    """Run ``qcla cost`` with and without ``--check-formulas``: the exit code
    of each, the JSON rows of the checked run and its stderr."""
    plain = cli(argv + ["--format", "json"])
    capsys.readouterr()
    checked = cli(argv + ["--check-formulas", "--format", "json"])
    out, err = capsys.readouterr()
    return plain, checked, json.loads(out), err


def test_cost_check_formulas_fails_a_qubit_count_off_the_golden_delta(monkeypatch, capsys):
    """A qubit count that qcla verify fails exits 1 here too."""
    row = resources.DESIGN_COSTS[Design.IN_FT_QCLA2]
    monkeypatch.setitem(resources.DESIGN_COSTS, Design.IN_FT_QCLA2, replace(row, qubit_offset=0))
    plain, checked, rows, err = _judged_cost(
        ["cost", "--design", "in2", "--n-from", "4", "--n-to", "5"], capsys)
    assert (plain, checked) == (0, 1)
    assert [row["qubit_delta"] for row in rows] == [-1, -1]
    assert err == ("formula mismatch: In-FT-QCLA2 n=4: qubit delta -1\n"
                   "formula mismatch: In-FT-QCLA2 n=5: qubit delta -1\n")


def test_cost_check_formulas_fails_a_closed_form_off_the_stage_sum(monkeypatch, capsys):
    def table_off_by_one(design, n, kind):
        return formula_tcount(design, n, kind) + (kind == "table" and design is Design.IN_FT_QCLA2)

    monkeypatch.setattr(resources, "formula_tcount", table_off_by_one)
    plain, checked, [row], err = _judged_cost(
        ["cost", "--design", "in2", "--n-from", "8", "--n-to", "8"], capsys)
    assert (plain, checked) == (0, 1)
    assert (row["stage_sum_t"], row["closed_form_t"], row["t_delta"]) == (189, 190, 0)
    assert err == "formula mismatch: In-FT-QCLA2 n=8: stage sum 189 != closed form 190\n"


def test_cost_check_formulas_passes_in1_closed_form_off_the_stage_sum(capsys):
    """In-FT-QCLA1's closed form is off its stage sum (a ledger entry), as in qcla verify."""
    plain, checked, [row], err = _judged_cost(
        ["cost", "--design", "in1", "--n-from", "8", "--n-to", "8"], capsys)
    assert (plain, checked, err) == (0, 0, "")
    assert (row["stage_sum_t"], row["closed_form_t"]) == (132, 100)


def test_cost_check_formulas_fails_in1_closed_form_off_its_known_delta(monkeypatch, capsys):
    """A wrong In-FT-QCLA1 closed form fails the delta identity, as in qcla verify."""
    def table_off_by_one(design, n, kind):
        return formula_tcount(design, n, kind) + (kind == "table" and design is Design.IN_FT_QCLA1)

    monkeypatch.setattr(resources, "formula_tcount", table_off_by_one)
    plain, checked, [row], err = _judged_cost(
        ["cost", "--design", "in1", "--n-from", "8", "--n-to", "8"], capsys)
    assert (plain, checked) == (0, 1)
    assert (row["stage_sum_t"], row["closed_form_t"]) == (132, 101)
    assert err == "formula mismatch: In-FT-QCLA1 n=8: stage sum - closed form 31 != delta 32\n"


def test_cost_below_the_closed_form_domain_is_a_domain_error(capsys):
    assert cli(["cost", "--design", "in1", "--n-from", "1", "--n-to", "1"]) == 2
    assert capsys.readouterr().err == "error: In-FT-QCLA1 cost form needs n >= 2\n"
    assert cli(["cost", "--design", "in1", "--n-from", "3", "--n-to", "2"]) == 2
    assert capsys.readouterr().err == "error: empty width range\n"


MALFORMED_BRANCHES = ["seed:x", "seed:", "seed:--5", "seeds:5", "garbage"]


def _assert_sim_rejects_branches(backend, branches, capsys):
    assert cli(["sim", "--design", "out1", "--n", "2", "--a", "1", "--b", "2",
                "--backend", backend, "--branches", branches]) == 2
    assert capsys.readouterr() == (
        "", f"error: --branches must be 'all', 'seed' or 'seed:S', got {branches!r}\n")


@pytest.mark.parametrize("branches", MALFORMED_BRANCHES)
def test_sim_rejects_a_malformed_branch_seed(branches, capsys):
    _assert_sim_rejects_branches("statevector", branches, capsys)


@pytest.mark.parametrize("branches", MALFORMED_BRANCHES)
def test_reversible_sim_rejects_a_malformed_branch_seed(branches, capsys):
    """The reversible backend parses --branches too, though it never reads it."""
    _assert_sim_rejects_branches("reversible", branches, capsys)


def test_cost_starts_at_the_closed_form_domain(capsys):
    assert cli(["cost", "--design", "in1", "--n-from", "1", "--n-to", "3",
                "--format", "json"]) == 0
    assert [row["n"] for row in json.loads(capsys.readouterr().out)] == [2, 3]


def test_cost_json_format(capsys):
    assert cli(["cost", "--design", "in2", "--n-from", "8", "--n-to", "8",
                "--check-formulas", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["t_count"] == 189 == rows[0]["closed_form_t"]


def test_compare_in_place(capsys):
    assert cli(["compare", "--table", "in", "--n", "64"]) == 0
    out = capsys.readouterr().out
    assert "Thapliyal-in: 60.59" in out
    assert "unreproduced" in out


def test_gen_qasm_file(tmp_path):
    target = tmp_path / "circ.qasm"
    assert cli(["gen", "--design", "out1", "--n", "2", "--level", "cliffordt",
                "--format", "qasm3", "-o", str(target)]) == 0
    assert target.read_text().startswith("OPENQASM 3.0;")


def test_gen_qasm_requires_cliffordt(capsys):
    assert cli(["gen", "--design", "out1", "--n", "2", "--format", "qasm3"]) == 2


def test_gen_json_default_level(capsys):
    assert cli(["gen", "--design", "in1", "--n", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "qcla-ir/1"
    assert data["level"] == "toffoli"


NO_SIMULATOR = {"qcla.revsim", "qcla.statevec", "qcla.validate"}
NO_EXPORTER = NO_SIMULATOR | {"qcla.jsonio", "qcla.qasm"}


@pytest.mark.parametrize("argv, head, unloaded", [
    (["gen", "--design", "out1", "--n", "4"], "{", NO_SIMULATOR),
    (["compare", "--table", "in", "--n", "8"], "design", NO_EXPORTER),
    (["cost", "--design", "in1", "--n-from", "8", "--n-to", "8", "--check-formulas"], "design",
     NO_EXPORTER),
], ids=["gen", "compare", "cost"])
def test_subcommand_loads_no_simulator(argv, head, unloaded):
    """qcla gen builds, lowers and writes, and qcla cost and qcla compare
    cost and judge: in a fresh interpreter none loads a simulator or the
    verifier, and cost and compare load no exporter either."""
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from qcla.cli import cli\n"
        "with redirect_stdout(io.StringIO()) as out:\n"
        f"    code = cli({argv!r})\n"
        f"print(code, out.getvalue().startswith({head!r}))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qcla.')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    status, loaded = result.stdout.splitlines()
    assert status == "0 True"
    assert not unloaded & set(loaded.split())


@pytest.mark.parametrize("argv", [
    ["gen", "--design", "out1", "--n", "2"],
    ["sim", "--design", "out1", "--n", "2", "--a", "1", "--b", "2"],
    ["sim", "--design", "out1", "--n", "2", "--a", "1", "--b", "2", "--backend", "statevector"],
], ids=["gen", "sim-reversible", "sim-statevector"])
def test_gen_and_sim_load_no_cost_forms(argv):
    """qcla gen and qcla sim read no closed cost form: in a fresh interpreter
    neither loads qcla.resources or fractions."""
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from qcla.cli import cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    code = cli({argv!r})\n"
        "print(code, *sorted({'qcla.resources', 'fractions'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


NOT_ASCII_INTEGERS = ["\u0663", "3_0", "+3", " 3", "3 ", "--3", "", "0x3", "3.0"]
# the option under test is spelled --opt=value, so that '--3' is its value
INTEGER_OPTIONS = {
    "--n": ["gen", "--design", "out1", "--n={}"],
    "--n-from": ["cost", "--design", "out1", "--n-from={}", "--n-to", "3"],
    "--n-to": ["cost", "--design", "out1", "--n-from", "1", "--n-to={}"],
    "--a": ["sim", "--design", "out1", "--n", "2", "--a={}", "--b", "0"],
    "--b": ["sim", "--design", "out1", "--n", "2", "--a", "0", "--b={}"],
}


@pytest.mark.parametrize("text", NOT_ASCII_INTEGERS)
@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integer_options_take_ascii_digits_only(option, text, capsys):
    """Every integer option reads ASCII digits after an optional '-', and
    exits 2 on any other spelling ``int()`` would take."""
    argv = [arg.format(text) for arg in INTEGER_OPTIONS[option]]
    assert cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {option}: invalid integer value: {text!r}\n" in err
    assert cli([arg.format("3" if option == "--n-from" else "1") for arg in INTEGER_OPTIONS[option]]) == 0


@pytest.mark.parametrize("text", NOT_ASCII_INTEGERS)
def test_branch_seed_takes_ascii_digits_only(text, capsys):
    _assert_sim_rejects_branches("statevector", f"seed:{text}", capsys)


@pytest.mark.parametrize("text", [*NOT_ASCII_INTEGERS, "\u0664\u0662", "4_2", " 7 "])
def test_seed_variable_takes_ascii_digits_only(text, capsys, monkeypatch):
    monkeypatch.setenv("QCLA_SEED", text)
    assert cli(["sim", "--design", "out1", "--n", "2", "--a", "1", "--b", "2",
                "--backend", "statevector", "--branches", "seed"]) == 2
    assert capsys.readouterr() == ("", f"error: QCLA_SEED must be an integer, got {text!r}\n")


@pytest.mark.parametrize("seed", ["-3", "0", "007"])
def test_ascii_integers_with_a_leading_minus_are_read(seed, capsys, monkeypatch):
    monkeypatch.setenv("QCLA_SEED", seed)
    for branches in ("seed", f"seed:{seed}"):
        assert cli(["sim", "--design", "out1", "--n", "2", "--a", "1", "--b", "2",
                    "--backend", "statevector", "--branches", branches]) == 0
        assert "deterministic, correct (1 + 2 = 3)" in capsys.readouterr().out


def test_usage_error_exit_2(capsys):
    assert cli(["gen", "--design", "bogus", "--n", "2"]) == 2


def test_verify_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli(["verify", "-o", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert len(data["discrepancies"]) == 6
    out = capsys.readouterr().out
    assert out.count("pass") >= 10
    # each check carries its own run time, in the report and on its line
    for check in data["checks"]:
        assert list(check) == ["name", "passed", "detail", "seconds"]
        assert check["seconds"] >= 0
        line = next(ln for ln in out.splitlines() if ln.endswith(check["name"]))
        assert f"{check['seconds']:.3f} s" in line


def test_sim_statevector_over_branch_cap_is_usage_error(capsys):
    assert cli(["sim", "--design", "out1", "--n", "8", "--a", "1", "--b", "2",
                "--backend", "statevector"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds the cap" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_simulation_error_is_usage_error(monkeypatch, tmp_path, capsys):
    """A simulator limit hit inside qcla verify exits 2 with one error line."""
    def capped(*args):
        raise SimulationError("branch count exceeds the cap of 4096")

    monkeypatch.setattr(validate, "_certify", capped)
    assert cli(["verify", "-o", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: branch count exceeds the cap of 4096\n"


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    """A width too large for memory exits 2 with one error line, not a traceback."""
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("qcla.cli.build", exhausted)
    assert cli(["gen", "--design", "out1", "--n", "8"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_verify_fails_a_lower_that_drops_its_resets(lower_without_resets, tmp_path):
    """A ``lower`` that drops every ``cc_x`` reset fails ``qcla verify`` (exit 1)."""
    assert cli(["verify", "-o", str(tmp_path / "r.json")]) == 1


def test_sim_statevector_seeded_at_n64(capsys):
    assert cli(["sim", "--design", "in1", "--n", "64", "--a", "5", "--b", "9",
                "--backend", "statevector", "--branches", "seed:5"]) == 0
    out = capsys.readouterr().out
    assert "deterministic, correct (5 + 9 = 14)" in out
    # a branch of 2^-406 prints as a nonzero probability and a 0/1 string
    fields = dict(f.split("=", 1) for f in out.splitlines()[0].split())
    assert fields["sum"] == "14"
    assert float(fields["probability"]) > 0
    assert fields["cbits"] and set(fields["cbits"]) <= {"0", "1"}


def test_non_integer_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QCLA_SEED", "abc")
    assert cli(["sim", "--design", "out1", "--n", "2", "--a", "1", "--b", "2",
                "--backend", "statevector", "--branches", "seed"]) == 2
    err = capsys.readouterr().err
    assert err == "error: QCLA_SEED must be an integer, got 'abc'\n"


DESIGNS = st.sampled_from(DESIGN_KEYS)
BAD_WIDTHS = st.sampled_from(["0", "-1", "two"])


@st.composite
def argvs(draw) -> list[str]:
    """argv for gen, cost, sim or compare at n <= 6 (statevector n <= 3) in which
    at most one option takes a bad value: an unknown choice, a width below 1 or
    not a number, an operand out of range or a malformed --branches string."""
    command = draw(st.sampled_from(["gen", "cost", "sim", "compare"]))
    backend = draw(st.sampled_from(["reversible", "statevector"]))
    n = draw(st.integers(1, 3 if command == "sim" and backend == "statevector" else 6))
    operand = st.integers(0, 2**n - 1).map(str)
    bad_operand = st.sampled_from(["-1", str(2**n), str(2**64), "x"])
    options = {
        "gen": {"--design": DESIGNS, "--n": st.just(str(n)),
                "--level": st.sampled_from(["toffoli", "cliffordt"]),
                "--format": st.sampled_from(["json", "qasm3"])},
        "cost": {"--design": DESIGNS, "--n-from": st.integers(1, n).map(str),
                 "--n-to": st.just(str(n)), "--format": st.sampled_from(["table", "csv", "json"])},
        "sim": {"--design": DESIGNS, "--n": st.just(str(n)), "--a": operand, "--b": operand,
                "--backend": st.just(backend),
                "--branches": st.sampled_from(["all", "seed", "seed:7", "seed:-3"])},
        "compare": {"--table": st.sampled_from(["in", "out"]), "--n": st.just(str(n))},
    }[command]
    bad = {
        "--design": st.just("bogus"), "--n": BAD_WIDTHS, "--n-from": BAD_WIDTHS,
        "--n-to": BAD_WIDTHS, "--level": st.just("qubit"), "--format": st.just("xml"),
        "--a": bad_operand, "--b": bad_operand,
        "--backend": st.just("gpu"), "--branches": st.sampled_from(["seed:", "seed:x", "one", ""]),
        "--table": st.just("both"),
    }
    fault = draw(st.sampled_from([None, *options]))
    argv = [command]
    for opt, valid in options.items():
        argv += [opt, draw(bad[opt] if opt == fault else valid)]
    if command == "cost" and draw(st.booleans()):
        argv.append("--check-formulas")
    return argv


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(argv=argvs(), seed=st.sampled_from([None, "7", "abc", ""]))
def test_cli_exit_codes_without_traceback(argv, seed):
    """Every argv of the grammar exits 0, 1 or 2 and prints no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        if seed is None:
            mp.delenv("QCLA_SEED", raising=False)
        else:
            mp.setenv("QCLA_SEED", seed)
        code = cli(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
