"""Verification suite: each check reports its own failure; report provenance."""

import json
import platform
import re
import sys
import types
from pathlib import Path

import pytest

import qcla
from qcla import validate
from qcla.builders import Design
from qcla.jsonio import to_json_dict


def test_cost_checks_carry_their_own_detail(monkeypatch):
    """A wrong qubit delta fails only the qubit check, with that check's detail;
    the passing checks carry an empty detail."""
    monkeypatch.setitem(validate.QUBIT_DELTAS, Design.IN_FT_QCLA2, 0)
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


def test_qubit_deltas_match_the_golden_file():
    path = Path(__file__).resolve().parent.parent / "golden" / "qubit_deltas.json"
    golden = json.loads(path.read_text())
    assert {design.value: delta for design, delta in validate.QUBIT_DELTAS.items()} == golden


def test_roundtrip_check_requires_json_dumps_bytes(monkeypatch):
    """Stable JSON that loads back but is not json.dumps(indent=2)'s fails the check."""
    monkeypatch.setattr(validate, "to_json", lambda circ: json.dumps(to_json_dict(circ)) + "\n")
    report = validate.ValidationReport()
    validate._check_roundtrip(report, widths=(1,))
    [(name, ok, detail, _)] = report.checks
    assert not ok and detail.endswith("JSON bytes not json.dumps(indent=2)'s")
