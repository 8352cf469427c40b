import gc

import pytest


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
