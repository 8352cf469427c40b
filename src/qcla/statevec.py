"""Dense statevector simulation of Clifford+T circuits with measurement branching.

Certifies the gadget lowerings (unitary checks against truth tables) and the
end-to-end determinism of the adders at small widths: every measurement
branch of a built circuit must read out the same sum.

Qubit order is register-table order; amplitudes are stored in a [2]*q
ndarray with axis i holding qubit i.  The default amplitude cap of 24 qubits
keeps a simulation under 256 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
from typing import Sequence

import numpy as np

from .ir import AncillaInit, Circuit, Gate, GateKind, Level, QubitRef
from .lowering import lower_temporary_and, lower_toffoli, lower_uncompute

_H = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2)
_T = np.diag([1, np.exp(1j * pi / 4)]).astype(complex)
_GATE_1Q = {
    GateKind.NOT: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.H: _H,
    GateKind.T: _T,
    GateKind.TDG: _T.conj(),
    GateKind.S: np.diag([1, 1j]).astype(complex),
    GateKind.SDG: np.diag([1, -1j]).astype(complex),
    GateKind.Z: np.diag([1, -1]).astype(complex),
}

MAGIC_A_STATE = np.array([1, np.exp(1j * pi / 4)], dtype=complex) / sqrt(2)

NORM_TOL = 1e-9
PRUNE_AMPLITUDE = 1e-12
DEFAULT_QUBIT_CAP = 24
DEFAULT_BRANCH_CAP = 4096


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SeededRandom:
    """Sample one branch per measurement with a reproducible generator."""

    seed: int = 42


@dataclass(frozen=True)
class FixedOutcomes:
    """Force the listed measurement outcomes (must have nonzero probability)."""

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
        value = 0
        for label, bit in self.readout.items():
            if label.startswith(prefix) and label[len(prefix) :].isdigit():
                value |= bit << int(label[len(prefix) :])
        return value


def _apply_1q(state: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    state = np.moveaxis(state, axis, 0)
    out = np.tensordot(mat, state, axes=([1], [0]))
    return np.moveaxis(out, 0, axis)


def _apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    idx10 = [slice(None)] * state.ndim
    idx10[control] = 1
    idx10[target] = 0
    idx11 = [slice(None)] * state.ndim
    idx11[control] = 1
    idx11[target] = 1
    tmp = state[tuple(idx10)].copy()
    state[tuple(idx10)] = state[tuple(idx11)]
    state[tuple(idx11)] = tmp
    return state

def _apply_cz(state: np.ndarray, q1: int, q2: int) -> np.ndarray:
    idx = [slice(None)] * state.ndim
    idx[q1] = 1
    idx[q2] = 1
    state[tuple(idx)] *= -1
    return state


def _prob_one(state: np.ndarray, axis: int) -> float:
    idx = [slice(None)] * state.ndim
    idx[axis] = 1
    return float(np.sum(np.abs(state[tuple(idx)]) ** 2))


def _project(state: np.ndarray, axis: int, outcome: int, prob: float) -> np.ndarray:
    idx = [slice(None)] * state.ndim
    idx[axis] = 1 - outcome
    state[tuple(idx)] = 0
    return state / sqrt(prob)


def initial_vector(circ: Circuit, register_values: dict[str, int]) -> np.ndarray:
    """Tensor product of data-register basis states and ancilla init states."""
    nq = circ.num_qubits
    state = np.zeros([2] * nq, dtype=complex)
    one_qubit_states = []
    for reg in circ.registers.values():
        value = register_values.get(reg.name)
        if reg.inits is None and value is None:
            raise ValueError(f"data register {reg.name!r} needs an input value")
        if value is not None and not 0 <= value < 2**reg.size:
            raise ValueError(f"value {value} does not fit register {reg.name!r}[{reg.size}]")
        for i in range(reg.size):
            if reg.inits is not None and reg.inits[i] is AncillaInit.MAGIC_A:
                one_qubit_states.append(MAGIC_A_STATE)
            else:
                bit = (value >> i) & 1 if value is not None else 0
                one_qubit_states.append(np.array([1 - bit, bit], dtype=complex))
    vec = np.array([1], dtype=complex)
    for q in one_qubit_states:
        vec = np.kron(vec, q)  # qubit order: earlier registers on slower axes
    return vec.reshape([2] * nq)


def _readout(circ: Circuit, state: np.ndarray, positions: dict[QubitRef, int]) -> dict[str, int]:
    """Classical readout of every labeled (non-free/spent) qubit.

    A labeled output whose marginal is not within NORM_TOL of a basis state is
    an error: the adders must be deterministic on their declared outputs.
    """
    out: dict[str, int] = {}
    for q, label in circ.labels.items():
        if label in ("free", "spent"):
            continue
        p1 = _prob_one(state, positions[q])
        if p1 > 1 - NORM_TOL:
            out[label] = 1
        elif p1 < NORM_TOL:
            out[label] = 0
        else:
            raise SimulationError(f"labeled output {label} on {q} is not classical (p1={p1})")
    return out


def _run_branches(
    gates: Sequence[Gate],
    positions: dict[QubitRef, int],
    state: np.ndarray,
    cbits: Sequence[int],
    strategy=AllBranches(),
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> list[tuple[np.ndarray, float, tuple[int, ...]]]:
    """Execute a gate list from (state, cbits), branching on measurements.

    ``positions`` maps each qubit to its axis of ``state``; the start state
    may be modified in place.  Returns one (state, probability, cbits) per
    branch: every outcome above the prune cut under AllBranches, a single
    sampled or forced record under SeededRandom and FixedOutcomes.
    """
    rng = np.random.default_rng(strategy.seed) if isinstance(strategy, SeededRandom) else None
    # branch: (gate index to resume at, state, probability, classical bits)
    stack = [(0, state, 1.0, list(cbits))]
    results: list[tuple[np.ndarray, float, tuple[int, ...]]] = []
    while stack:
        gi, state, prob, cbits = stack.pop()
        for gi in range(gi, len(gates)):
            gate = gates[gi]
            kind = gate.kind
            if kind in _GATE_1Q:
                state = _apply_1q(state, _GATE_1Q[kind], positions[gate.qubits[0]])
            elif kind is GateKind.CNOT:
                state = _apply_cnot(state, positions[gate.qubits[0]], positions[gate.qubits[1]])
            elif kind is GateKind.CZ:
                state = _apply_cz(state, positions[gate.qubits[0]], positions[gate.qubits[1]])
            elif kind is GateKind.CC_Z:
                if cbits[gate.cbit]:
                    state = _apply_cz(state, positions[gate.qubits[0]], positions[gate.qubits[1]])
            elif kind is GateKind.CC_X:
                if cbits[gate.cbit]:
                    state = _apply_1q(state, _GATE_1Q[GateKind.NOT], positions[gate.qubits[0]])
            elif kind is GateKind.MEASURE_X:
                axis = positions[gate.qubits[0]]
                state = _apply_1q(state, _H, axis)
                p1 = _prob_one(state, axis)
                p = (max(1 - p1, 0.0), max(p1, 0.0))
                if isinstance(strategy, AllBranches):
                    live = [m for m in (0, 1) if sqrt(p[m]) > PRUNE_AMPLITUDE]
                    if len(live) == 2:
                        other = _project(state.copy(), axis, live[1], p[live[1]])
                        bits2 = list(cbits)
                        bits2[gate.cbit] = live[1]
                        if len(stack) + len(results) + 2 > branch_cap:
                            raise SimulationError(f"branch count exceeds cap {branch_cap}")
                        stack.append((gi + 1, other, prob * p[live[1]], bits2))
                    outcome = live[0]
                elif isinstance(strategy, FixedOutcomes):
                    outcome = strategy.outcomes[gate.cbit]
                    if sqrt(p[outcome]) <= PRUNE_AMPLITUDE:
                        raise SimulationError(
                            f"forced outcome {outcome} for bit {gate.cbit} has zero probability"
                        )
                else:
                    outcome = int(rng.random() < p[1])
                state = _project(state, axis, outcome, p[outcome])
                prob *= p[outcome]
                cbits[gate.cbit] = outcome
            else:
                raise SimulationError(f"unsupported gate kind {kind}")
        results.append((state, prob, tuple(cbits)))
    return results


def simulate(
    circ: Circuit,
    register_values: dict[str, int],
    strategy=AllBranches(),
    qubit_cap: int = DEFAULT_QUBIT_CAP,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> list[BranchOutcome]:
    """Run a Clifford+T circuit, returning one outcome per surviving branch.

    Branch probabilities sum to 1 (within numerical tolerance) under
    AllBranches; SeededRandom and FixedOutcomes return a single branch whose
    probability is that of the sampled/forced measurement record.
    """
    if circ.level is not Level.CLIFFORD_T:
        raise SimulationError("statevector simulation expects a Clifford+T circuit")
    nq = circ.num_qubits
    if nq > qubit_cap:
        raise SimulationError(f"{nq} qubits exceeds the cap of {qubit_cap}")
    if isinstance(strategy, FixedOutcomes) and len(strategy.outcomes) != circ.num_cbits:
        raise SimulationError(
            f"{len(strategy.outcomes)} forced outcomes for {circ.num_cbits} measurements"
        )
    positions = circ.qubit_positions()
    branches = _run_branches(
        circ.gates,
        positions,
        initial_vector(circ, register_values),
        [0] * circ.num_cbits,
        strategy,
        branch_cap,
    )
    results: list[BranchOutcome] = []
    for state, prob, cbits in branches:
        norm = float(np.sum(np.abs(state) ** 2))
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


def _basis(nq: int, bits: int) -> np.ndarray:
    state = np.zeros([2] * nq, dtype=complex)
    idx = tuple((bits >> (nq - 1 - i)) & 1 for i in range(nq))
    state[idx] = 1
    return state


def _max_dev_mod_phase(got: np.ndarray, want: np.ndarray) -> float:
    """Max amplitude deviation after removing a global phase."""
    g, w = got.ravel(), want.ravel()
    k = int(np.argmax(np.abs(w)))
    if abs(g[k]) < 1e-14:
        return float(np.max(np.abs(g - w)))
    phase = w[k] / g[k]
    phase /= abs(phase)
    return float(np.max(np.abs(g * phase - w)))


def gadget_unitary_check(gadget: str) -> GadgetCheck:
    """Certify one lowering gadget against its truth action.

    * "toffoli": 8 basis inputs against the Toffoli permutation.
    * "and": the 4 control basis states; the full 4-T sequence from |0> and
      its post-preparation core from the magic resource state must both land
      on |x, y, x AND y>; the preparation must produce the resource state.
    * "and_uncompute_pair": AND, CNOT onto a fourth qubit, uncompute; checked
      against the Toffoli action on the three logical qubits in every
      measurement branch.
    """
    q = [QubitRef("q", i) for i in range(4)]
    pos = {qi: i for i, qi in enumerate(q)}
    tol = 1e-10
    worst = 0.0
    cases = 0

    if gadget == "toffoli":
        gates = lower_toffoli(q[0], q[1], q[2])
        for bits in range(8):
            inp = _basis(3, bits)
            (out, _, _), = _run_branches(gates, pos, inp, [])
            x, y, zv = bits >> 2 & 1, bits >> 1 & 1, bits & 1
            want = _basis(3, (x << 2) | (y << 1) | (zv ^ (x & y)))
            worst = max(worst, _max_dev_mod_phase(out, want))
            cases += 1
        return GadgetCheck(gadget, worst < tol, worst, cases)

    if gadget == "and":
        from .ir import h as _h, t as _t

        full = lower_temporary_and(q[0], q[1], q[2])
        core = full[2:]  # after the H, T magic-state preparation
        # preparation reproduces the magic resource state exactly
        (st, _, _), = _run_branches([_h(q[0]), _t(q[0])], pos, _basis(1, 0), [])
        worst = max(worst, float(np.max(np.abs(st.ravel() - MAGIC_A_STATE))))
        cases += 1
        for bits in range(4):
            x, y = bits >> 1 & 1, bits & 1
            want = _basis(3, (x << 2) | (y << 1) | (x & y))
            (out, _, _), = _run_branches(full, pos, _basis(3, bits << 1), [])
            worst = max(worst, _max_dev_mod_phase(out, want))
            magic_in = np.tensordot(_basis(2, bits), MAGIC_A_STATE, axes=0)
            (out2, _, _), = _run_branches(core, pos, magic_in, [])
            worst = max(worst, _max_dev_mod_phase(out2, want))
            cases += 2
        return GadgetCheck(gadget, worst < tol, worst, cases)

    if gadget == "and_uncompute_pair":
        from .ir import cnot as _cnot

        gates = (
            lower_temporary_and(q[0], q[1], q[3])
            + [_cnot(q[3], q[2])]
            + lower_uncompute(q[0], q[1], q[3], cbit=0)
        )
        for bits in range(8):
            x, y, zv = bits >> 2 & 1, bits >> 1 & 1, bits & 1
            inp = _basis(4, bits << 1)  # ancilla q3 starts |0>
            branches = _run_branches(gates, pos, inp, [0])
            total_p = 0.0
            for st, pr, _cb in branches:
                total_p += pr
                # compare the three logical qubits; ancilla is classical post-measure
                marg = st.reshape(8, 2)
                col = int(np.argmax(np.sum(np.abs(marg) ** 2, axis=0)))
                got = marg[:, col]
                want = _basis(3, (x << 2) | (y << 1) | (zv ^ (x & y))).ravel()
                worst = max(worst, _max_dev_mod_phase(got, want))
                cases += 1
            worst = max(worst, abs(total_p - 1.0))
        return GadgetCheck(gadget, worst < tol, worst, cases)

    raise ValueError(f"unknown gadget {gadget!r}")
