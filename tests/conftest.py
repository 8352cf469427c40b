import gc

import pytest


def replaced(obj, **changes):
    """``obj`` rebuilt by its constructor with ``changes`` applied, as
    ``dataclasses.replace`` rebuilds a dataclass: for the records of
    ``qcla.ir`` and ``qcla.measure``, which are not dataclasses."""
    return type(obj)(**{**vars(obj), **changes})


@pytest.fixture(autouse=True)
def _collector_state_kept():
    """Fail a test that leaves the cyclic garbage collector on or off other
    than it found it: the switch is process-wide, so a leaked pause would
    reach every later test."""
    before = gc.isenabled()
    yield
    after = gc.isenabled()
    if after != before:
        (gc.enable if before else gc.disable)()
        pytest.fail(f"the test left gc.isenabled() {after}, it was {before}")


@pytest.fixture
def lower_without_resets(monkeypatch):
    """``lower`` with every ``cc_x`` reset dropped from its output, in each module
    that calls it; ``lift`` re-lowers through it, as with a real defect of ``lower``."""
    from qcla import lowering, resources, validate
    from qcla.ir import GateKind

    real = lowering.lower

    def dropped(circ):
        out = real(circ)
        out.gates[:] = [g for g in out.gates if g.kind is not GateKind.CC_X]
        return out

    for module in (lowering, validate, resources):
        monkeypatch.setattr(module, "lower", dropped)
