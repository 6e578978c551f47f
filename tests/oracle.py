"""Analytic two-qubit algebra: the reference the engine is checked against.

Nothing in ``duplexqkd`` runs this code.  It holds the matrix forms of the
Paulis and planar observables, Pauli application, phase-blind state
comparison, Bell-state identification, Bell outcome probabilities by
projection, two-qubit density matrices, their mixtures, and the exact
correlators and CHSH values the sampled estimates must reproduce.

Global phase is never observable: compare states with
:func:`equal_up_to_phase`.
"""

from __future__ import annotations

import math

import numpy as np

from duplexqkd.quantum import ATOL_ALGEBRA, BELL_ORDER, MAX_QUBITS, BellStateId, CapacityError, ChshSettings
from duplexqkd.quantum import PauliOp, PlanarObservable, PureState, bell_state

# Analytic equalities (phase overlaps, CHSH bounds) are checked at 1e-9.
ATOL_ANALYTIC = 1e-9

_PAULI_MATRICES: dict[PauliOp, np.ndarray] = {
    PauliOp.SIGMA0: np.array([[1, 0], [0, 1]], dtype=complex),
    PauliOp.SIGMA1: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.SIGMA2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliOp.SIGMA3: np.array([[1, 0], [0, -1]], dtype=complex),
}
for _m in _PAULI_MATRICES.values():
    _m.setflags(write=False)


def vector(state: PureState) -> np.ndarray:
    """A state's amplitudes as a numpy vector."""
    return np.asarray(state.amplitudes)


def pauli_matrix(op: PauliOp) -> np.ndarray:
    return _PAULI_MATRICES[op]


def observable_matrix(obs: PlanarObservable) -> np.ndarray:
    c, s = math.cos(obs.angle), math.sin(obs.angle)
    return np.array([[c, s], [s, -c]], dtype=complex)


def eigenvectors(obs: PlanarObservable) -> tuple[np.ndarray, np.ndarray]:
    """Real unit eigenvectors ``(plus, minus)`` for eigenvalues +1, -1."""
    half = 0.5 * obs.angle
    c, s = math.cos(half), math.sin(half)
    return np.array([c, s]), np.array([-s, c])


_KET_INDEX = {"H": 0, "V": 1}


def ket(label: str) -> PureState:
    """Computational-basis state from a polarization label, e.g. ``"H"`` or
    ``"HV"``."""
    if not label or any(ch not in _KET_INDEX for ch in label):
        raise ValueError(f"labels use only 'H' and 'V': {label!r}")
    n = len(label)
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit capacity")
    index = 0
    for ch in label:
        index = (index << 1) | _KET_INDEX[ch]
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


def apply_pauli(state: PureState, qubit: int, op: PauliOp) -> PureState:
    """Apply a Pauli unitary to one qubit.

    Global phase follows from the matrix convention and is not meaningful;
    compare results with :func:`equal_up_to_phase`.
    """
    if not (0 <= qubit < state.num_qubits):
        raise IndexError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")
    if op is PauliOp.SIGMA0:
        return state
    m = pauli_matrix(op)
    a = vector(state).reshape((1 << qubit, 2, -1))
    out = np.empty_like(a)
    out[:, 0, :] = m[0, 0] * a[:, 0, :] + m[0, 1] * a[:, 1, :]
    out[:, 1, :] = m[1, 0] * a[:, 0, :] + m[1, 1] * a[:, 1, :]
    return PureState(out.reshape(-1))


def equal_up_to_phase(a: PureState, b: PureState, atol: float = ATOL_ANALYTIC) -> bool:
    """True when |<a|b>| = 1 within ``atol`` (identical physical states)."""
    if a.num_qubits != b.num_qubits:
        return False
    return abs(abs(complex(np.vdot(vector(a), vector(b)))) - 1.0) <= atol


def identify_bell(state: PureState) -> BellStateId | None:
    """Which Bell state a two-qubit state is, up to global phase; None if it
    is not one."""
    if state.num_qubits != 2:
        return None
    for b in BELL_ORDER:
        if abs(abs(vector(bell_state(b)) @ vector(state).conj()) - 1.0) <= ATOL_ANALYTIC:
            return b
    return None


def bell_outcome_probabilities(state: PureState, qubit_a: int, qubit_b: int) -> dict[BellStateId, float]:
    """Born-rule probabilities of each Bell outcome on the addressed pair:
    the squared norm of <B| on (qubit_a, qubit_b) applied to the state."""
    amps = vector(state).reshape((2,) * state.num_qubits)
    pair = np.moveaxis(amps, (qubit_a, qubit_b), (0, 1)).reshape(4, -1)
    return {b: float(np.sum(np.abs(vector(bell_state(b)).conj() @ pair) ** 2)) for b in BELL_ORDER}


class TwoQubitDensity:
    """4x4 Hermitian, unit-trace, positive-semidefinite density matrix."""

    __slots__ = ("matrix",)

    matrix: np.ndarray

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if abs(np.trace(m).real - 1.0) > ATOL_ALGEBRA or abs(np.trace(m).imag) > ATOL_ALGEBRA:
            raise ValueError("density matrix trace must be 1")
        if np.abs(m - m.conj().T).max() > ATOL_ALGEBRA:
            raise ValueError("density matrix must be Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("TwoQubitDensity is immutable")

    @classmethod
    def from_pure(cls, state: PureState) -> "TwoQubitDensity":
        if state.num_qubits != 2:
            raise ValueError("density matrices are supported for 2-qubit states only")
        v = vector(state)
        return cls(np.outer(v, v.conj()))


def mix(components: list[tuple[float, TwoQubitDensity]]) -> TwoQubitDensity:
    """Convex combination of two-qubit density matrices."""
    if not components:
        raise ValueError("mix needs at least one component")
    total = 0.0
    acc = np.zeros((4, 4), dtype=complex)
    for weight, rho in components:
        w = float(weight)
        if w < 0.0:
            raise ValueError(f"negative mixture weight {w}")
        total += w
        acc += w * rho.matrix
    if abs(total - 1.0) > ATOL_ALGEBRA:
        raise ValueError(f"mixture weights sum to {total!r}, expected 1")
    return TwoQubitDensity(acc)


def correlator(rho: TwoQubitDensity, obs_a: PlanarObservable, obs_b: PlanarObservable) -> float:
    """Exact expectation value Tr[rho (A x B)] of the product observable."""
    m = np.kron(observable_matrix(obs_a), observable_matrix(obs_b))
    value = float(np.einsum("ij,ji->", rho.matrix, m).real)
    if abs(value) > 1.0 + ATOL_ALGEBRA:
        raise ArithmeticError(f"correlator {value} outside [-1, 1]")
    return value


def chsh_value(rho: TwoQubitDensity, settings: ChshSettings) -> float:
    """Analytic CHSH combination S = E(a1,b1) - E(a1,b2) + E(a2,b1) + E(a2,b2)."""
    a1, a2 = (PlanarObservable(a) for a in settings.alice_angles)
    b1, b2 = (PlanarObservable(b) for b in settings.bob_angles)
    return (
        correlator(rho, a1, b1)
        - correlator(rho, a1, b2)
        + correlator(rho, a2, b1)
        + correlator(rho, a2, b2)
    )
