"""Verification suite: each check reports its own failure."""

from qcla import validate
from qcla.builders import Design


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
