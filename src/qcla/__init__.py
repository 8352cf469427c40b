"""Carry-lookahead adder circuit toolkit.

Builds the four logarithmic-depth adder circuit families at Toffoli level,
lowers them to the Clifford+T gate set with the 4-T temporary-AND gadget and
measurement-based uncomputation, measures and cross-checks resource costs
against the published closed forms, and verifies functional correctness with
classical and statevector simulators.

``import qcla`` loads only what costing needs: ``ir``, ``builders``,
``lowering`` and ``measure``, none of which loads ``dataclasses`` or
``fractions``.  The names of the closed cost forms and of the simulators
(``_LAZY``), and the ``resources``, ``revsim`` and ``statevec`` submodules,
are bound on first access, so a caller that only builds and counts never
compiles the cost tables or the simulators.
"""

from importlib import import_module

from .builders import (
    Design,
    RoundKind,
    RoundTriple,
    build,
    cla_reference,
    design_from_key,
    floor_log2,
    round_indices,
)
from .ir import (
    AncillaInit,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Level,
    QubitRef,
    load_circuit,
    new_circuit,
)
from .lowering import lift, lower, lower_temporary_and, lower_toffoli, lower_uncompute
from .measure import ResourceReport, count, schedule

# submodule -> the names qcla re-exports from it, imported on first access
_LAZY = {
    "resources": (
        "CostModel",
        "SavingsFigure",
        "formula_qubits",
        "formula_tcount",
        "hamming_weight",
        "savings",
        "savings_average",
    ),
    "revsim": ("BasisState", "exhaustive_check", "initial_state", "random_check", "run_basis"),
    "statevec": ("AllBranches", "SeededRandom", "gadget_unitary_check", "simulate"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "AllBranches",
    "AncillaInit",
    "BasisState",
    "Circuit",
    "CircuitError",
    "CostModel",
    "Design",
    "Gate",
    "GateKind",
    "Level",
    "QubitRef",
    "ResourceReport",
    "RoundKind",
    "RoundTriple",
    "SavingsFigure",
    "SeededRandom",
    "build",
    "cla_reference",
    "count",
    "design_from_key",
    "exhaustive_check",
    "floor_log2",
    "formula_qubits",
    "formula_tcount",
    "gadget_unitary_check",
    "hamming_weight",
    "initial_state",
    "lift",
    "load_circuit",
    "lower",
    "lower_temporary_and",
    "lower_toffoli",
    "lower_uncompute",
    "new_circuit",
    "random_check",
    "round_indices",
    "run_basis",
    "savings",
    "savings_average",
    "schedule",
    "simulate",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:
        return import_module(f".{name}", __name__)  # binds qcla.<name> itself
    if name not in _LAZY_OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_OWNER})
