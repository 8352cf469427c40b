"""Sparse statevector simulation of Clifford+T circuits with measurement branching.

One certificate (:func:`_certify`) judges every Clifford+T gate list: each
lowering gadget and each lowered adder, against what the executor of
:mod:`qcla.revsim` does with its Toffoli-level parent, on the whole state of
every measurement branch, up to one global phase per measurement record.

The state is a dict from basis index to complex amplitude; bit i of an index
is qubit position i in register-table order.  Only H creates new terms, and
the temporary-AND with measurement-based uncompute returns the adders to a
single basis state times a phase between gadgets, so a lowered adder holds at
most two live amplitudes at any width.  AMPLITUDE_CAP bounds the memory that
a hand-built circuit with many superposed qubits can take.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from itertools import product
from math import pi, sqrt
from typing import Sequence

from .ir import T_KINDS, Circuit, Gate, GateKind, Level, QubitRef, label_index
from .lowering import GADGETS
from .revsim import _run_masks

_T_PHASE = cmath.exp(1j * pi / 4)
# phase gates: the factor applied to the amplitudes whose qubit bit is set
_PHASE = {
    GateKind.T: _T_PHASE,
    GateKind.TDG: _T_PHASE.conjugate(),
    GateKind.S: 1j,
    GateKind.SDG: -1j,
    GateKind.Z: -1,
}
_R = 1 / sqrt(2)

MAGIC_A_STATE = (complex(_R), _T_PHASE * _R)

NORM_TOL = 1e-9
CERTIFY_TOL = 1e-10  # the largest worst deviation a certificate passes
PRUNE_AMPLITUDE = 1e-12
AMPLITUDE_CAP = 1 << 20
BRANCH_CAP = 4096

State = dict[int, complex]
Case = tuple[State, State]  # (start, want): a basis input and the state it must end in


class SimulationError(ValueError):
    """A run past a simulator limit, or on an input it cannot simulate."""


@dataclass(frozen=True)
class SeededRandom:
    """Sample one branch per measurement with a reproducible generator."""

    seed: int = 42


@dataclass(frozen=True)
class FixedOutcomes:
    """Force the listed measurement outcomes, each an ``int`` 0 or 1 (a ``bool``
    is not) with nonzero probability."""

    outcomes: tuple[int, ...]


@dataclass(frozen=True)
class AllBranches:
    """Explore every measurement outcome with probability above the prune cut."""


@dataclass
class BranchOutcome:
    """One simulation branch: classical bits, branch probability, readouts."""

    cbits: tuple[int, ...]
    probability: float
    readout: dict[str, int]  # final wire label -> classical bit value

    def labeled_int(self, prefix: str = "s") -> int:
        """The integer spelled by the readout of labels prefix0, prefix1, ..."""
        value = 0
        for label, bit in self.readout.items():
            i = label_index(label, prefix)
            if i is not None:
                value |= bit << i
        return value


def _check_size(state: State) -> State:
    if len(state) > AMPLITUDE_CAP:
        raise SimulationError(f"{len(state)} live amplitudes exceed the cap of {AMPLITUDE_CAP}")
    return state


def _hadamard(state: State, mask: int) -> State:
    out: State = {}
    for k, v in state.items():
        v *= _R
        k0 = k & ~mask
        out[k0] = out.get(k0, 0) + v
        out[k0 | mask] = out.get(k0 | mask, 0) + (-v if k & mask else v)
    return _check_size({k: v for k, v in out.items() if abs(v) > PRUNE_AMPLITUDE})


def _prob_one(state: State, mask: int) -> float:
    return sum(abs(v) ** 2 for k, v in state.items() if k & mask)


def _project(state: State, mask: int, outcome: int) -> State:
    """Keep the amplitudes with the measured bit equal to ``outcome``, renormalised
    by their own norm, so rounding in the outcome probability cannot accumulate."""
    keep = mask if outcome else 0
    kept = {k: v for k, v in state.items() if k & mask == keep}
    norm = sqrt(sum(abs(v) ** 2 for v in kept.values()))
    return {k: v / norm for k, v in kept.items()}


def _basis(*bits: int) -> State:
    """The basis state with qubit i (bit i of the index) set to ``bits[i]``."""
    return {sum(b << i for i, b in enumerate(bits)): 1 + 0j}


def initial_vector(circ: Circuit, register_values: dict[str, int]) -> State:
    """The basis state of the inputs (:meth:`Circuit.basis_input`): a Clifford+T
    ancilla starts in |0>, and the stream prepares any magic state it uses."""
    return _basis(*circ.basis_input(register_values).values())


def _readout(circ: Circuit, state: State, positions: dict[QubitRef, int]) -> dict[str, int]:
    """Classical readout of every labeled qubit but the spent ancillae.

    A labeled output whose marginal is not within NORM_TOL of a basis state is
    an error: the adders must be deterministic on their declared outputs.
    """
    out: dict[str, int] = {}
    for q, label in circ.labels.items():
        if label == "spent":
            continue
        p1 = _prob_one(state, 1 << positions[q])
        if NORM_TOL <= p1 <= 1 - NORM_TOL:
            raise SimulationError(f"labeled output {label} on {q} is not classical (p1={p1})")
        out[label] = int(p1 > 0.5)
    return out


def _run_branches(
    gates: Sequence[Gate],
    positions: dict[QubitRef, int],
    state: State,
    cbits: Sequence[int],
    strategy=AllBranches(),
) -> list[tuple[State, float, tuple[int, ...]]]:
    """Execute a gate list from (state, cbits), branching on measurements.

    ``positions`` maps each qubit to its bit in the basis indices of
    ``state``.  Returns one (state, probability, cbits) per branch: every
    outcome above the prune cut under AllBranches, a single sampled or forced
    record under SeededRandom and FixedOutcomes.
    """
    rng = random.Random(strategy.seed) if isinstance(strategy, SeededRandom) else None
    masks = {q: 1 << p for q, p in positions.items()}
    # branch: (gate index to resume at, state, probability, classical bits)
    stack = [(0, state, 1.0, list(cbits))]
    results: list[tuple[State, float, tuple[int, ...]]] = []
    # an Enum class attribute is slow to look up, so read each one once
    H, NOT, CNOT = GateKind.H, GateKind.NOT, GateKind.CNOT
    MEASURE_X, CC_X, CC_Z = GateKind.MEASURE_X, GateKind.CC_X, GateKind.CC_Z
    while stack:
        gi, state, prob, cbits = stack.pop()
        for gi in range(gi, len(gates)):
            gate = gates[gi]
            kind = gate.kind
            m = masks[gate.qubits[0]]
            if kind in _PHASE:
                phase = _PHASE[kind]
                state = {k: v * phase if k & m else v for k, v in state.items()}
            elif kind is H:
                state = _hadamard(state, m)
            elif kind is NOT or (kind is CC_X and cbits[gate.cbit]):
                state = {k ^ m: v for k, v in state.items()}
            elif kind is CNOT:
                t = masks[gate.qubits[1]]
                state = {k ^ t if k & m else k: v for k, v in state.items()}
            elif kind is CC_Z and cbits[gate.cbit]:
                both = m | masks[gate.qubits[1]]
                state = {k: -v if k & both == both else v for k, v in state.items()}
            elif kind is MEASURE_X:
                state = _hadamard(state, m)
                p1 = _prob_one(state, m)
                p = (max(1 - p1, 0.0), max(p1, 0.0))
                if isinstance(strategy, AllBranches):
                    live = [b for b in (0, 1) if sqrt(p[b]) > PRUNE_AMPLITUDE]
                    if len(live) == 2:
                        if len(stack) + len(results) + 2 > BRANCH_CAP:
                            raise SimulationError(f"branch count exceeds the cap of {BRANCH_CAP}")
                        bits2 = list(cbits)
                        bits2[gate.cbit] = 1
                        stack.append((gi + 1, _project(state, m, 1), prob * p[1], bits2))
                    outcome = live[0]
                elif isinstance(strategy, FixedOutcomes):
                    outcome = strategy.outcomes[gate.cbit]
                    if sqrt(p[outcome]) <= PRUNE_AMPLITUDE:
                        raise SimulationError(
                            f"forced outcome {outcome} for bit {gate.cbit} has zero probability"
                        )
                else:
                    outcome = int(rng.random() < p[1])
                state = _project(state, m, outcome)
                prob *= p[outcome]
                cbits[gate.cbit] = outcome
            elif kind not in (CC_X, CC_Z):
                raise SimulationError(f"unsupported gate kind {kind}")
        results.append((state, prob, tuple(cbits)))
    return results


def simulate(
    circ: Circuit,
    register_values: dict[str, int],
    strategy=AllBranches(),
) -> list[BranchOutcome]:
    """Run a Clifford+T circuit, returning one outcome per surviving branch.

    Branch probabilities sum to 1 (within numerical tolerance) under
    AllBranches; SeededRandom and FixedOutcomes return a single branch whose
    probability is that of the sampled/forced measurement record.  Raises
    :class:`CircuitError` when two qubits spell one sum-bit label.
    """
    if circ.level is not Level.CLIFFORD_T:
        raise SimulationError("statevector simulation expects a Clifford+T circuit")
    circ.labeled("s")
    if isinstance(strategy, FixedOutcomes):
        if len(strategy.outcomes) != circ.num_cbits:
            raise SimulationError(
                f"{len(strategy.outcomes)} forced outcomes for {circ.num_cbits} measurements"
            )
        if not all(type(o) is int and o in (0, 1) for o in strategy.outcomes):
            raise SimulationError("forced outcomes must each be 0 or 1")
    positions = circ.qubit_positions()
    branches = _run_branches(
        circ.gates,
        positions,
        initial_vector(circ, register_values),
        [0] * circ.num_cbits,
        strategy,
    )
    results: list[BranchOutcome] = []
    for state, prob, cbits in branches:
        norm = sum(abs(v) ** 2 for v in state.values())
        if abs(norm - 1) > NORM_TOL:
            raise SimulationError(f"state norm drifted to {norm}")
        results.append(BranchOutcome(cbits, prob, _readout(circ, state, positions)))
    results.sort(key=lambda r: r.cbits)
    return results


# ---------------------------------------------------------------------------
# gadget certification


@dataclass
class GadgetCheck:
    gadget: str
    passed: bool
    max_deviation: float
    cases: int


def _max_dev_mod_phase(cases: Sequence[Case]) -> float:
    """Max amplitude deviation over (got, want) cases after removing one
    global phase, fixed from the first case and shared by all of them: a
    phase that differs between basis inputs is an error of the gadget."""
    got, want = cases[0]
    k = max(want, key=lambda i: abs(want[i]))
    g = got.get(k, 0)
    phase = want[k] / g if abs(g) >= 1e-14 else 1
    phase /= abs(phase)
    return max(
        abs(got.get(i, 0) * phase - want.get(i, 0))
        for got, want in cases
        for i in got.keys() | want.keys()
    )


def _executor_cases(circ: Circuit, starts: list[dict], pos: dict[QubitRef, int]) -> list[Case]:
    """The cases :func:`qcla.revsim._run_masks` gives the Toffoli-level ``circ``,
    qubit q on bit ``pos[q]``: want is a start's final bits, 0 on a qubit it
    marks spent.  A start where it records a contract violation is no case."""
    cases = []
    for start in starts:
        bits, spent, failures = dict(start), set(), []
        _run_masks(circ, bits, spent, 1, failures)
        if not failures:
            want = sum(bits[q] << i for q, i in pos.items() if q not in spent)
            cases.append(({sum(start[q] << i for q, i in pos.items()): 1 + 0j}, {want: 1 + 0j}))
    return cases


def _certify(gates: Sequence[Gate], cases: Sequence[Case], pos: dict[QubitRef, int]) -> float:
    """The one certificate of a Clifford+T gate list, a gadget's or a lowered adder's:
    every case runs through every measurement branch of ``gates``, qubit q on bit
    ``pos[q]``.  Each start's branch probabilities must sum to 1, and every branch
    must equal ``want`` up to one global phase per measurement record.  A
    measured-out qubit must hold one value on every input of a record: ``want``
    leaves it at 0, and the record's first branch sets it.  Returns the worst deviation.
    """
    measured = sum({1 << pos[g.qubits[0]] for g in gates if g.kind is GateKind.MEASURE_X})
    cbits = [0] * (1 + max((g.cbit for g in gates if g.cbit is not None), default=-1))
    worst = 0.0
    by_record: dict[tuple[int, ...], list[Case]] = {}
    for start, want in cases:
        branches = _run_branches(gates, pos, start, cbits)
        worst = max(worst, abs(sum(pr for _st, pr, _cb in branches) - 1.0))
        for st, _pr, cb in branches:
            by_record.setdefault(cb, []).append((st, want))
    for record in by_record.values():
        first = record[0][0]
        held = max(first, key=lambda k: abs(first[k])) & measured
        held_wants = [(st, {k | held: v for k, v in want.items()}) for st, want in record]
        worst = max(worst, _max_dev_mod_phase(held_wants))
    return worst


def certified(worst: float) -> bool:
    """The verdict on a :func:`_certify` deviation: NaN and above CERTIFY_TOL fail."""
    return worst <= CERTIFY_TOL


def gadget_unitary_check(gadget: str) -> GadgetCheck:
    """Certify the row of :data:`qcla.lowering.GADGETS` named ``gadget``.

    The cases come from :func:`qcla.revsim._run_masks`, the one statement of
    what a Toffoli-level gate does, through :func:`_executor_cases`: the
    row's gate on (x, y, t) = (q[0], q[1], q[2]) runs from each basis input.
    The row's gate list goes through :func:`_certify`, the certificate of the
    lowered adders too.  ``cases`` counts the cases.  A row with no case
    fails, as does a T count other than its declared cost.  A row that
    prepares its target also checks that the preparation takes |0> to the
    magic resource state and that the rest acts the same from that state.
    """
    kind, row = next(((k, r) for k, r in GADGETS.items() if r.name == gadget), (None, None))
    if row is None:
        raise ValueError(f"unknown gadget {gadget!r}")
    pos = {QubitRef("q", i): i for i in range(3)}
    gates = row.gadget(*pos)
    one_gate = Circuit(gates=[Gate(kind, tuple(pos))])  # the executor reads its level and gates
    cases = _executor_cases(one_gate, [dict(zip(pos, s)) for s in product((0, 1), repeat=3)], pos)
    worst = _certify(gates, cases, pos)
    if row.prep:
        (st, _, _), = _run_branches(gates[: row.prep], pos, _basis(0), [])
        prep_dev = max(abs(st.get(b << 2, 0) - MAGIC_A_STATE[b]) for b in (0, 1))
        # a prepared target starts at 0; the core starts from the resource state in its place
        from_magic = [
            ({k | b << 2: v * MAGIC_A_STATE[b] for k, v in start.items() for b in (0, 1)}, want)
            for start, want in cases
        ]
        worst = max(worst, prep_dev, _certify(gates[row.prep :], from_magic, pos))
    t_count = sum(g.kind in T_KINDS for g in gates)
    passed = bool(cases) and certified(worst) and t_count == row.t_cost
    return GadgetCheck(gadget, passed, worst, len(cases))
