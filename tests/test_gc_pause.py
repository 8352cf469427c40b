"""The functions that allocate a whole gate list, or walk one allocating state
per gate, run with the cyclic garbage collector paused, and leave it on or off
as they found it."""

import gc
import json
import sys
from contextlib import contextmanager
from dataclasses import replace

import pytest

from qcla.builders import Design, build
from qcla.ir import CircuitError, _gc_paused
from qcla.jsonio import JsonIrError, from_json, from_json_dict, to_json
from qcla.lowering import lower
from qcla.qasm import QasmError, parse_qasm3, to_qasm3
from qcla.resources import count, schedule

PAUSED = (build, lower, from_json, from_json_dict, parse_qasm3, count, schedule)


@contextmanager
def _collector(enabled: bool):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


_TOFFOLI = build(Design.IN_FT_QCLA1, 3)
_LOWERED = lower(_TOFFOLI)

# (paused function, its arguments, the error the call raises or None): one
# passing and one raising call of each
CALLS = [
    (build, (Design.IN_FT_QCLA1, 0), CircuitError),
    (build, (Design.IN_FT_QCLA1, 3), None),
    (lower, (_TOFFOLI,), None),
    (lower, (_LOWERED,), CircuitError),
    (from_json, (to_json(_LOWERED),), None),
    (from_json, ("{",), JsonIrError),
    (from_json_dict, (json.loads(to_json(_LOWERED)),), None),
    (from_json_dict, ({},), JsonIrError),
    (parse_qasm3, (to_qasm3(_LOWERED),), None),
    (parse_qasm3, ("x",), QasmError),
    (count, (_LOWERED,), None),
    (count, (None,), AttributeError),
    (schedule, (_LOWERED,), None),
    (schedule, (None,), AttributeError),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "fn, args, error",
    CALLS,
    ids=[f"{fn.__name__}-{'raises' if error else 'returns'}" for fn, _, error in CALLS],
)
def test_collector_state_is_restored(fn, args, error, enabled):
    with _collector(enabled):
        if error is None:
            fn(*args)
        else:
            with pytest.raises(error):
                fn(*args)
        assert gc.isenabled() is enabled


def test_pause_is_off_inside_and_nests():
    seen = []

    @_gc_paused
    def inner():
        seen.append(gc.isenabled())

    @_gc_paused
    def outer():
        """outer's docstring"""
        inner()
        seen.append(gc.isenabled())

    with _collector(True):
        outer()
        assert gc.isenabled()
    assert seen == [False, False]
    assert outer.__name__ == "outer" and outer.__doc__ == "outer's docstring"


def test_no_collection_starts_inside_a_gate_list_build():
    """A collection that starts while a paused function's frame is on the
    stack is one the pause should have prevented; collections still run
    between the calls, so the hook is live."""
    codes = {getattr(fn, "__wrapped__", fn).__code__ for fn in PAUSED}
    starts, inside = [], []

    def seen(phase, info):
        if phase != "start":
            return
        starts.append(info["generation"])
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in codes:
            frame = frame.f_back
        if frame is not None:
            inside.append(frame.f_code.co_name)

    with _collector(True):
        circ = lower(build(Design.IN_FT_QCLA1, 256))
        text, qasm = to_json(circ), to_qasm3(circ)
        gc.callbacks.append(seen)
        try:
            circ = lower(build(Design.IN_FT_QCLA1, 256))
            for design in Design:  # each a young circuit that count walks
                count(lower(build(design, 256)))
            from_json(text)
            parse_qasm3(qasm)
            [[i] for i in range(10 * gc.get_threshold()[0])]  # young lists a collection finds
        finally:
            gc.callbacks.remove(seen)
    assert inside == []
    assert starts, "no collection ran at all, so the hook saw nothing"


class _RecordingGates(list):
    """A gate list that records whether the collector is on each time it is
    iterated."""

    def __init__(self, gates, seen):
        super().__init__(gates)
        self.seen = seen

    def __iter__(self):
        self.seen.append(gc.isenabled())
        return super().__iter__()


@pytest.mark.parametrize("fn", [count, schedule], ids=["count", "schedule"])
def test_gate_walk_runs_with_the_collector_paused(fn):
    """Each walk over the gates runs with the collector off, whatever happens
    to trigger a collection: handed alone, each function must pause it itself."""
    seen = []
    circ = replace(_LOWERED, gates=_RecordingGates(_LOWERED.gates, seen))
    with _collector(True):
        fn(circ)
        assert gc.isenabled()
    assert seen and not any(seen)
