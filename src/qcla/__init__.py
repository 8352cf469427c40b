"""Carry-lookahead adder circuit toolkit.

Builds the four logarithmic-depth adder circuit families at Toffoli level,
lowers them to the Clifford+T gate set with the 4-T temporary-AND gadget and
measurement-based uncomputation, measures and cross-checks resource costs
against the published closed forms, and verifies functional correctness with
classical and statevector simulators.
"""

from .builders import Design, RoundKind, RoundTriple, build, cla_reference, design_from_key, round_indices
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
from .resources import (
    CostModel,
    ResourceReport,
    SavingsFigure,
    catalog_cost,
    count,
    floor_log2,
    formula_qubits,
    formula_tcount,
    hamming_weight,
    savings,
    savings_average,
    schedule,
)
from .revsim import BasisState, exhaustive_check, initial_state, random_check, run_basis
from .statevec import AllBranches, FixedOutcomes, SeededRandom, gadget_unitary_check, simulate

__all__ = [
    "AllBranches",
    "AncillaInit",
    "BasisState",
    "Circuit",
    "CircuitError",
    "CostModel",
    "Design",
    "FixedOutcomes",
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
    "catalog_cost",
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
