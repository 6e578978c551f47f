"""Exact state algebra for small polarization-qubit systems (1 to 4 qubits).

Everything downstream (protocol runners, attacks, estimators) is built on the
handful of primitives here: Bell-state construction, tensor composition,
projective single-qubit measurement with collapse, Bell-basis measurement,
Pauli application, two-qubit density matrices, and analytic correlators /
CHSH values.

Conventions, fixed once and relied on everywhere:

* Computational basis: |H> maps to index 0 and |V> to index 1.  Multi-qubit
  amplitudes are ordered lexicographically (|HH>, |HV>, |VH>, |VV>, ...),
  with qubit 0 the leftmost slot.
* A planar observable with angle t is cos(t)*sigma_z + sin(t)*sigma_x; its
  +1/-1 eigenvectors are (cos t/2, sin t/2) and (-sin t/2, cos t/2), both
  real.  Angle 0 is the sigma_z measurement, pi/2 the sigma_x measurement.
* Collapsing operations take one uniform sample ``u`` in [0, 1) and are pure
  functions of (state, arguments, u).  Each one's decision is a
  :class:`Choice`, an interval table over [0, 1): the +1 branch is taken
  when u < P(+1); Bell outcomes are laid out cumulatively in the order
  psi+, psi-, phi+, phi-.
* Global phase is never observable: state comparisons use
  :func:`equal_up_to_phase`.

The collapsing primitives and :func:`tensor` are memoized.  Their
deterministic part is a pure function of the exact amplitudes (keyed by the
amplitude bytes), the qubit indices and the angle; only the final branch
choice reads ``u``.  A session only ever reaches a small fixed set of states
(a few dozen to a few hundred transitions), so each transition is computed
once and then looked up.  The cached
results are built with the same arithmetic in the same order as an uncached
call, so outputs are bit-identical; each cache is cleared when it reaches
``_CACHE_CAP`` entries, so memory stays bounded for any input.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ATOL_ALGEBRA",
    "ATOL_ANALYTIC",
    "BELL_ORDER",
    "MAX_QUBITS",
    "Basis",
    "BellStateId",
    "CapacityError",
    "ChshSettings",
    "Choice",
    "Outcome",
    "PauliOp",
    "PlanarObservable",
    "PureState",
    "TwoQubitDensity",
    "apply_pauli",
    "bell_choice",
    "bell_measure",
    "bell_outcome_probabilities",
    "bell_state",
    "chsh_value",
    "correlator",
    "equal_up_to_phase",
    "identify_bell",
    "ket",
    "measure_choice",
    "measure_qubit",
    "mix",
    "tensor",
]

MAX_QUBITS = 4

# Algebraic invariants (norms, traces, Hermiticity) hold to 1e-12; analytic
# equalities (phase overlaps, CHSH bounds) are checked at 1e-9.
ATOL_ALGEBRA = 1e-12
ATOL_ANALYTIC = 1e-9

#: Measurement outcome: always +1 or -1.
Outcome = int


class CapacityError(ValueError):
    """Raised when an operation would exceed the 4-qubit capacity."""


class BellStateId(Enum):
    """The four Bell states; enum values are the two-bit encodings used by
    the four-state protocol variant (psi+ = 00, psi- = 01, phi+ = 10,
    phi- = 11)."""

    PSI_PLUS = 0b00
    PSI_MINUS = 0b01
    PHI_PLUS = 0b10
    PHI_MINUS = 0b11

    @property
    def bits(self) -> int:
        return self.value


#: Canonical enumeration order; also the cumulative layout for sampling in
#: :func:`bell_measure`.
BELL_ORDER: tuple[BellStateId, ...] = (
    BellStateId.PSI_PLUS,
    BellStateId.PSI_MINUS,
    BellStateId.PHI_PLUS,
    BellStateId.PHI_MINUS,
)


class PauliOp(Enum):
    SIGMA0 = 0
    SIGMA1 = 1
    SIGMA2 = 2
    SIGMA3 = 3

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]


_PAULI_MATRICES: dict[PauliOp, np.ndarray] = {
    PauliOp.SIGMA0: np.array([[1, 0], [0, 1]], dtype=complex),
    PauliOp.SIGMA1: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.SIGMA2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliOp.SIGMA3: np.array([[1, 0], [0, -1]], dtype=complex),
}
for _m in _PAULI_MATRICES.values():
    _m.setflags(write=False)


@dataclass(frozen=True)
class PlanarObservable:
    """A +-1-valued observable in the sigma_z / sigma_x plane.

    ``angle`` is stored reduced into [0, 2*pi).
    """

    angle: float

    def __post_init__(self) -> None:
        angle = float(self.angle)
        if not math.isfinite(angle):
            raise ValueError(f"observable angle must be finite, got {angle}")
        object.__setattr__(self, "angle", angle % (2.0 * math.pi))

    @property
    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return np.array([[c, s], [s, -c]], dtype=complex)

    def eigenvectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Real unit eigenvectors ``(plus, minus)`` for eigenvalues +1, -1."""
        half = 0.5 * self.angle
        c, s = math.cos(half), math.sin(half)
        return np.array([c, s]), np.array([-s, c])


class Basis(Enum):
    """The two measurement bases of the base protocol.

    X is the sigma_x (diagonal polarization) measurement, Z the sigma_z
    (rectilinear) one.
    """

    X = "x"
    Z = "z"

    @property
    def observable(self) -> PlanarObservable:
        return _BASIS_OBSERVABLES[self]


_BASIS_OBSERVABLES: dict[Basis, PlanarObservable] = {
    Basis.X: PlanarObservable(0.5 * math.pi),
    Basis.Z: PlanarObservable(0.0),
}


@dataclass(frozen=True)
class ChshSettings:
    """Measurement angles for CHSH testing: Alice's pair (a1_1, a1_2) and
    Bob's pair (a2_1, a2_2), all in radians."""

    alice_angles: tuple[float, float]
    bob_angles: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alice_angles", tuple(float(a) for a in self.alice_angles))
        object.__setattr__(self, "bob_angles", tuple(float(a) for a in self.bob_angles))
        if len(self.alice_angles) != 2 or len(self.bob_angles) != 2:
            raise ValueError("ChshSettings needs exactly two angles per party")
        if not all(map(math.isfinite, self.alice_angles + self.bob_angles)):
            raise ValueError("CHSH angles must be finite")


class PureState:
    """Normalized complex amplitude vector over 1..4 qubits.

    Instances are immutable; the amplitude array is read-only.  The squared
    norm is 1 within 1e-12 after construction and after every collapse.
    """

    __slots__ = ("amplitudes", "num_qubits", "_key")

    amplitudes: np.ndarray
    num_qubits: int

    def __init__(self, amplitudes) -> None:
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        n = int(amps.size).bit_length() - 1
        if amps.size != (1 << n) or not (1 <= n <= MAX_QUBITS):
            raise ValueError(
                f"amplitude vector of length {amps.size} does not describe "
                f"1..{MAX_QUBITS} qubits"
            )
        norm_sq = float((amps.real**2 + amps.imag**2).sum())
        if abs(norm_sq - 1.0) > ATOL_ALGEBRA:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "_key", None)

    @classmethod
    def _wrap(cls, amps: np.ndarray, num_qubits: int) -> "PureState":
        # Internal fast path: caller guarantees normalization.
        self = object.__new__(cls)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "_key", None)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PureState is immutable")

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"PureState({self.num_qubits} qubits, {np.round(self.amplitudes, 6)!r})"


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
    return PureState._wrap(amps, n)


_SQRT_HALF = 1.0 / math.sqrt(2.0)

_BELL_AMPLITUDES: dict[BellStateId, np.ndarray] = {
    BellStateId.PSI_PLUS: np.array([0, _SQRT_HALF, _SQRT_HALF, 0], dtype=complex),
    BellStateId.PSI_MINUS: np.array([0, _SQRT_HALF, -_SQRT_HALF, 0], dtype=complex),
    BellStateId.PHI_PLUS: np.array([_SQRT_HALF, 0, 0, _SQRT_HALF], dtype=complex),
    BellStateId.PHI_MINUS: np.array([_SQRT_HALF, 0, 0, -_SQRT_HALF], dtype=complex),
}
_BELL_STATES: dict[BellStateId, PureState] = {
    state_id: PureState._wrap(amps, 2) for state_id, amps in _BELL_AMPLITUDES.items()
}


def bell_state(state_id: BellStateId) -> PureState:
    """The two-qubit Bell state, in the fixed |HH>,|HV>,|VH>,|VV> ordering.

    psi+- = (|HV> +- |VH>)/sqrt(2), phi+- = (|HH> +- |VV>)/sqrt(2).  Each
    call returns the same prebuilt instance.
    """
    return _BELL_STATES[state_id]


class Choice:
    """One decision on a uniform draw ``u`` in [0, 1), as an interval table.

    ``cuts`` is non-decreasing and ``branches`` has one more entry; ``u``
    selects ``branches[i]``, where ``i`` counts the cuts at or below ``u``
    (so branch 0 covers u < cuts[0]).  The table is kept in its smallest
    form: a cut no ``u`` can lie below (<= 0) or reach (>= 1) is dropped
    with the branches it makes unreachable, and neighbouring intervals with
    equal branches are merged.  A choice without cuts has one branch and
    does not depend on ``u``.
    """

    __slots__ = ("cuts", "branches")

    def __init__(self, cuts, branches) -> None:
        cuts, branches = tuple(cuts), tuple(branches)
        if len(branches) != len(cuts) + 1:
            raise ValueError(f"{len(cuts)} cuts need {len(cuts) + 1} branches, got {len(branches)}")
        kept_cuts: list[float] = []
        kept = [branches[0]]
        for cut, branch in zip(cuts, branches[1:]):
            if cut <= 0.0:
                kept_cuts, kept = [], [branch]
            elif cut >= 1.0:
                break
            elif branch != kept[-1]:
                kept_cuts.append(cut)
                kept.append(branch)
        self.cuts = tuple(kept_cuts)
        self.branches = tuple(kept)

    @classmethod
    def uniform(cls, branches) -> "Choice":
        """Each branch with probability 1/n; for n a power of two, branch
        ``floor(u * n)``."""
        n = len(branches)
        return cls((k / n for k in range(1, n)), branches)

    def pick(self, u: float):
        return self.branches[bisect_right(self.cuts, u)]


# ---------------------------------------------------------------------------
# Transition caches.  Keys hold a state's exact amplitude bytes, so a hit
# means bit-identical input.  A CLI session fills at most a few hundred
# entries per cache; the cap only bounds memory on arbitrary inputs.

_CACHE_CAP = 4096

#: (state key, qubit, angle) -> Choice over (outcome, collapsed state)
_MEASURE_CACHE: dict[tuple[bytes, int, float], Choice] = {}
#: (state key, qubit_a, qubit_b) -> (probabilities, Choice over (outcome, residual))
_BELL_CACHE: dict[tuple[bytes, int, int], tuple] = {}
#: (key of a, key of b) -> a (x) b
_TENSOR_CACHE: dict[tuple[bytes, bytes], PureState] = {}


def _key(state: PureState) -> bytes:
    """Exact identity of a state's amplitudes (always complex128), computed
    once per instance."""
    key = state._key
    if key is None:
        key = state.amplitudes.tobytes()
        object.__setattr__(state, "_key", key)
    return key


def _remember(cache: dict, key, value):
    if len(cache) >= _CACHE_CAP:
        cache.clear()
    cache[key] = value
    return value


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; b's qubits are appended after a's."""
    n = a.num_qubits + b.num_qubits
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit capacity")
    key = (_key(a), _key(b))
    product = _TENSOR_CACHE.get(key)
    if product is None:
        product = _remember(_TENSOR_CACHE, key, PureState._wrap(np.kron(a.amplitudes, b.amplitudes), n))
    return product


def _check_qubit(state: PureState, qubit: int) -> None:
    if not (0 <= qubit < state.num_qubits):
        raise IndexError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")


def _collapsed(
    pairs: list[tuple[int, int]], coeffs: list[complex], norm_sq: float, u0: float, u1: float, n: int
) -> PureState:
    # The addressed qubit left in eigenvector (u0, u1), the rest renormalized.
    scale = 1.0 / math.sqrt(norm_sq)
    out = [0j] * (1 << n)
    for (i0, i1), coeff in zip(pairs, coeffs):
        q = coeff * scale
        out[i0] = u0 * q
        out[i1] = u1 * q
    return PureState._wrap(np.asarray(out, dtype=complex), n)


def _measure_transition(state: PureState, qubit: int, angle: float) -> Choice:
    """The decision of a planar measurement: +1 with its collapsed state for
    u < P(+1), else -1 with its own.  The -1 branch is never taken when its
    probability is below ``_MIN_BRANCH`` (rounding of the Born sums cannot
    then pick an impossible branch), and the +1 branch never when P(+1) is
    exactly 0, so nothing divides by zero."""
    n = state.num_qubits
    amps = state.amplitudes.tolist()
    right = 1 << (n - 1 - qubit)  # stride of the addressed qubit's bit
    block = right << 1
    half = 0.5 * angle
    c, s = math.cos(half), math.sin(half)
    pairs: list[tuple[int, int]] = []
    coeff_plus: list[complex] = []
    coeff_minus: list[complex] = []
    p_plus = 0.0
    p_minus = 0.0
    for base in range(0, 1 << n, block):
        for offset in range(base, base + right):
            pairs.append((offset, offset + right))
            cp = c * amps[offset] + s * amps[offset + right]
            cm = -s * amps[offset] + c * amps[offset + right]
            coeff_plus.append(cp)
            coeff_minus.append(cm)
            p_plus += cp.real * cp.real + cp.imag * cp.imag
            p_minus += cm.real * cm.real + cm.imag * cm.imag
    plus = (+1, _collapsed(pairs, coeff_plus, p_plus, c, s, n)) if p_plus > 0.0 else None
    if p_minus < _MIN_BRANCH:
        return Choice((), (plus,))
    return Choice((p_plus,), (plus, (-1, _collapsed(pairs, coeff_minus, p_minus, -s, c, n))))


def measure_choice(state: PureState, qubit: int, obs: PlanarObservable) -> Choice:
    """The decision a measurement of ``qubit`` with ``obs`` makes, as a
    :class:`Choice` over ``(outcome, collapsed state)``; computed once per
    exact (state, qubit, angle) and cached, so repeated calls return the
    same table and the same state objects."""
    _check_qubit(state, qubit)
    # PlanarObservable reduces its angle into [0, 2*pi), never -0.0 or NaN,
    # so float equality of angles is bit equality.
    key = (_key(state), qubit, obs.angle)
    choice = _MEASURE_CACHE.get(key)
    if choice is None:
        choice = _remember(_MEASURE_CACHE, key, _measure_transition(state, qubit, obs.angle))
    return choice


def measure_qubit(
    state: PureState, qubit: int, obs: PlanarObservable, rand: float
) -> tuple[Outcome, PureState]:
    """Projectively measure one qubit; returns (outcome, collapsed state).

    The outcome is sampled by the Born rule from the +-1 eigenprojectors of
    ``obs`` on the addressed qubit: +1 iff ``rand`` < P(+1).  The returned
    state keeps all qubits, with the measured one left in the eigenstate.
    This is ``measure_choice(state, qubit, obs).pick(rand)``.
    """
    choice = measure_choice(state, qubit, obs)
    if not (0.0 <= rand < 1.0):
        raise ValueError("rand must lie in [0, 1)")
    return choice.pick(rand)


# Probability below which a measurement branch is treated as impossible and
# never selected (protects renormalization from rounding of the Born sums).
_MIN_BRANCH = 1e-15


def apply_pauli(state: PureState, qubit: int, op: PauliOp) -> PureState:
    """Apply a Pauli unitary to one qubit.

    Global phase follows from the matrix convention and is not meaningful;
    compare results with :func:`equal_up_to_phase`.
    """
    _check_qubit(state, qubit)
    if op is PauliOp.SIGMA0:
        return state
    m = op.matrix
    a = state.amplitudes.reshape((1 << qubit, 2, -1))
    out = np.empty_like(a)
    out[:, 0, :] = m[0, 0] * a[:, 0, :] + m[0, 1] * a[:, 1, :]
    out[:, 1, :] = m[1, 0] * a[:, 0, :] + m[1, 1] * a[:, 1, :]
    return PureState._wrap(out.reshape(-1), state.num_qubits)


def _bell_transition(state: PureState, qubit_a: int, qubit_b: int) -> tuple[tuple[float, ...], Choice]:
    """Born probabilities of the four Bell outcomes (ordered like
    BELL_ORDER) and the decision of a Bell measurement over ``(outcome,
    residual)``.  Outcomes are laid out cumulatively; an outcome below
    ``_MIN_BRANCH``, and any ``u`` past the last cumulative sum (rounding),
    selects the most likely outcome instead.  The residual keeps the
    surviving qubits in their original relative order (None for a two-qubit
    input)."""
    n = state.num_qubits
    amps = state.amplitudes.tolist()
    sa = 1 << (n - 1 - qubit_a)
    sb = 1 << (n - 1 - qubit_b)
    both = sa | sb
    coeffs: list[list[complex]] = [[], [], [], []]
    probs = [0.0, 0.0, 0.0, 0.0]
    for rest in range(1 << n):
        if rest & both:
            continue
        a00 = amps[rest]
        a01 = amps[rest | sb]
        a10 = amps[rest | sa]
        a11 = amps[rest | both]
        for slot, c in enumerate(
            (
                (a01 + a10) * _SQRT_HALF,  # psi+
                (a01 - a10) * _SQRT_HALF,  # psi-
                (a00 + a11) * _SQRT_HALF,  # phi+
                (a00 - a11) * _SQRT_HALF,  # phi-
            )
        ):
            coeffs[slot].append(c)
            probs[slot] += c.real * c.real + c.imag * c.imag
    outcomes = []
    for slot, p in enumerate(probs):
        residual = None
        if n > 2 and p >= _MIN_BRANCH:
            scale = 1.0 / math.sqrt(p)
            residual = PureState._wrap(np.asarray([c * scale for c in coeffs[slot]], dtype=complex), n - 2)
        outcomes.append((BELL_ORDER[slot], residual))
    likeliest = outcomes[max(range(4), key=probs.__getitem__)]
    cuts = []
    acc = 0.0
    for p in probs:
        acc += p
        cuts.append(acc)
    branches = [outcome if p >= _MIN_BRANCH else likeliest for outcome, p in zip(outcomes, probs)]
    return tuple(probs), Choice(cuts, branches + [likeliest])


def _check_bell_pair(state: PureState, qubit_a: int, qubit_b: int) -> None:
    if qubit_a == qubit_b:
        raise IndexError("bell measurement needs two distinct qubits")
    _check_qubit(state, qubit_a)
    _check_qubit(state, qubit_b)


def _cached_bell_transition(
    state: PureState, qubit_a: int, qubit_b: int
) -> tuple[tuple[float, ...], Choice]:
    _check_bell_pair(state, qubit_a, qubit_b)
    key = (_key(state), qubit_a, qubit_b)
    transition = _BELL_CACHE.get(key)
    if transition is None:
        transition = _remember(_BELL_CACHE, key, _bell_transition(state, qubit_a, qubit_b))
    return transition


def bell_outcome_probabilities(
    state: PureState, qubit_a: int, qubit_b: int
) -> dict[BellStateId, float]:
    """Born-rule probabilities of each Bell outcome on the addressed pair."""
    probs, _ = _cached_bell_transition(state, qubit_a, qubit_b)
    return dict(zip(BELL_ORDER, probs))


def bell_choice(state: PureState, qubit_a: int, qubit_b: int) -> Choice:
    """The decision a Bell measurement of the addressed pair makes, as a
    :class:`Choice` over ``(outcome, residual)``; cached per exact (state,
    qubit_a, qubit_b)."""
    return _cached_bell_transition(state, qubit_a, qubit_b)[1]


def bell_measure(
    state: PureState, qubit_a: int, qubit_b: int, rand: float
) -> tuple[BellStateId, PureState | None]:
    """Project the addressed pair onto the Bell basis.

    Returns the sampled outcome and the renormalized residual state of the
    remaining qubits (None when the input had only the measured pair).  The
    residual keeps the surviving qubits in their original relative order.
    This is ``bell_choice(state, qubit_a, qubit_b).pick(rand)``.
    """
    choice = bell_choice(state, qubit_a, qubit_b)
    if not (0.0 <= rand < 1.0):
        raise ValueError("rand must lie in [0, 1)")
    return choice.pick(rand)


def equal_up_to_phase(a: PureState, b: PureState, atol: float = ATOL_ANALYTIC) -> bool:
    """True when |<a|b>| = 1 within ``atol`` (identical physical states)."""
    if a.num_qubits != b.num_qubits:
        return False
    return abs(abs(a.overlap(b)) - 1.0) <= atol


def identify_bell(state: PureState) -> BellStateId | None:
    """Which Bell state a two-qubit state is, up to global phase; None if it
    is not one."""
    if state.num_qubits != 2:
        return None
    for b in BELL_ORDER:
        if abs(abs(_BELL_AMPLITUDES[b] @ state.amplitudes.conj()) - 1.0) <= ATOL_ANALYTIC:
            return b
    return None


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
        v = state.amplitudes
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
    m = np.kron(obs_a.matrix, obs_b.matrix)
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
